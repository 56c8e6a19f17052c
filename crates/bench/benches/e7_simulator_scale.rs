//! E7 — simulator engineering figures: steps/s per scheduler, pasting
//! cost vs run length, buffer-receive microbenches (the bitset/`SenderMap`
//! guardrail), and Engine-driven execution of both substrates.
//!
//! The `e7_buffer_receive` group is the perf guardrail for the
//! `ProcessSet`/`SenderMap` migration: `take_all_from_bitset` exercises the
//! filtered-receive hot path with the dense representation, while
//! `btree_baseline` re-enacts the pre-migration `BTreeMap`/`BTreeSet` data
//! flow on identical traffic, so the win stays visible in the perf
//! trajectory commit over commit.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use kset_core::algorithms::floodmin::{floodmin_rounds, FloodMin};
use kset_core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset_core::scenario::{differential, to_lockstep, RoundAdapter};
use kset_core::sync::LockStep;
use kset_core::task::distinct_proposals;
use kset_impossibility::lemma12_no_fd;
use kset_sim::observe::EventCounter;
use kset_sim::sched::partition::{PartitionScheduler, ReleasePolicy};
use kset_sim::sched::random::SeededRandom;
use kset_sim::sched::round_robin::RoundRobin;
use kset_sim::{
    Buffer, CrashPlan, Engine, Envelope, MsgId, ProcessId, ProcessSet, Scenario, SenderMap,
    SimEngine, Simulation, Time, WideSet,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_steps_per_second");
    let n = 8usize;
    let steps = 20_000u64;
    group.throughput(Throughput::Elements(steps));
    group.sample_size(10);

    group.bench_function("round_robin_raw", |b| {
        // Raw engine throughput: drive steps directly, bypassing the
        // stop-on-decided run loop.
        b.iter(|| {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(
                two_stage_inputs(3, &distinct_proposals(n)),
                CrashPlan::none(),
            );
            for s in 0..steps {
                let pid = ProcessId::new((s as usize) % n);
                sim.step(pid, kset_sim::sched::Delivery::All).unwrap();
            }
        });
    });

    group.bench_function("seeded_random", |b| {
        b.iter(|| {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(
                two_stage_inputs(3, &distinct_proposals(n)),
                CrashPlan::none(),
            );
            let mut sched = SeededRandom::new(7);
            let _ = sim.run(&mut sched, steps);
        });
    });

    group.bench_function("partition", |b| {
        let blocks: Vec<ProcessSet> = vec![
            (0..n / 2).map(ProcessId::new).collect(),
            (n / 2..n).map(ProcessId::new).collect(),
        ];
        b.iter(|| {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(
                two_stage_inputs(3, &distinct_proposals(n)),
                CrashPlan::none(),
            );
            let mut sched = PartitionScheduler::new(blocks.clone(), ReleasePolicy::AfterAllDecided);
            let _ = sim.run(&mut sched, steps);
        });
    });

    group.finish();
}

/// Both substrates driven through the unified Engine trait.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_engine_substrates");
    group.sample_size(10);
    let n = 8usize;

    group.bench_function("sim_engine_two_stage", |b| {
        b.iter(|| {
            let sim: Simulation<TwoStage, _> = Simulation::new(
                two_stage_inputs(3, &distinct_proposals(n)),
                CrashPlan::none(),
            );
            let mut engine = SimEngine::new(sim, RoundRobin::new());
            let status = engine.drive(100_000);
            black_box(status.steps)
        });
    });

    group.bench_function("lockstep_engine_floodmin", |b| {
        let values = distinct_proposals(n);
        let (f, k) = (3usize, 1usize);
        b.iter(|| {
            let mut engine =
                LockStep::new(FloodMin::system(&values, f, k), floodmin_rounds(f, k), &[]);
            let status = engine.drive(u64::MAX);
            assert_eq!(engine.distinct_decisions().len(), 1);
            black_box(status.steps)
        });
    });

    group.finish();
}

/// The bitset/SenderMap guardrail: buffer receive and round-inbox
/// microbenches, with the pre-migration BTree data flow as the baseline.
fn bench_buffer_receive(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_buffer_receive");
    let n = 16usize;
    let per_source = 8usize;
    let msgs = (n * per_source) as u64;
    group.throughput(Throughput::Elements(msgs));
    group.sample_size(50);

    let envelopes: Vec<Envelope<u64>> = (0..msgs)
        .map(|i| {
            Envelope::new(
                MsgId::new(i),
                ProcessId::new((i as usize) % n),
                ProcessId::new(0),
                Time::new(i),
                i * 3,
            )
        })
        .collect();
    let allowed: ProcessSet = (0..n / 2).map(ProcessId::new).collect();

    group.bench_function("take_all_from_bitset", |b| {
        b.iter(|| {
            let mut buf: Buffer<u64> = Buffer::new();
            for env in &envelopes {
                buf.push(env.clone());
            }
            let (mut got, mut rest) = (Vec::new(), Vec::new());
            buf.take_all_from(allowed, &mut got);
            buf.take_all(&mut rest);
            black_box((got.len(), rest.len()))
        });
    });

    group.bench_function("btree_baseline", |b| {
        // The pre-migration representation: BTreeMap of per-source queues
        // filtered through a BTreeSet, on identical traffic.
        let allowed_btree: BTreeSet<ProcessId> = (0..n / 2).map(ProcessId::new).collect();
        b.iter(|| {
            let mut by_src: BTreeMap<ProcessId, VecDeque<Envelope<u64>>> = BTreeMap::new();
            for env in &envelopes {
                by_src.entry(env.src).or_default().push_back(env.clone());
            }
            let mut got = Vec::new();
            for (src, queue) in &mut by_src {
                if allowed_btree.contains(src) {
                    got.extend(queue.drain(..));
                }
            }
            let mut rest = Vec::new();
            for queue in by_src.values_mut() {
                rest.extend(queue.drain(..));
            }
            black_box((got.len(), rest.len()))
        });
    });

    group.bench_function("sender_map_round_inbox", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for round in 0..per_source as u64 {
                let mut inbox: SenderMap<u64> = SenderMap::with_capacity(n);
                for i in 0..n {
                    inbox.insert(ProcessId::new(i), round * 100 + i as u64);
                }
                acc += inbox.values().copied().min().unwrap_or(0);
                acc += inbox.senders().len() as u64;
            }
            black_box(acc)
        });
    });

    group.bench_function("btree_round_inbox_baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for round in 0..per_source as u64 {
                let mut inbox: BTreeMap<ProcessId, u64> = BTreeMap::new();
                for i in 0..n {
                    inbox.insert(ProcessId::new(i), round * 100 + i as u64);
                }
                acc += inbox.values().copied().min().unwrap_or(0);
                acc += inbox.keys().count() as u64;
            }
            black_box(acc)
        });
    });

    group.finish();
}

/// SplitMix64, for reproducible pseudo-random bit patterns without pulling
/// a generator into the measured loops.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The wide-bitset guardrail: the n ≤ 128 window must stay at
/// u128-register speed after the width bump to 512, and the wide ops must
/// stay far ahead of the pre-bitset `BTreeSet` data flow at n = 512.
///
/// Four representations run the identical op mix (∪, ∩, \, ⊆, popcount)
/// over the same 256 pseudo-random set pairs:
///
/// * `u128_reference_n128` — the old representation's cost, re-enacted on
///   raw `u128`s;
/// * `wideset2_n128` — `WideSet<2>`, the same 128-bit window behind the
///   width-generic API (any gap here is pure abstraction overhead);
/// * `processet_w8_n128` — the shipping `ProcessSet` (W = 8) on n ≤ 128
///   members: the price every existing workload pays for the headroom;
/// * `processet_w8_n512` / `btreeset_n512` — the new territory, against
///   the `BTreeSet<ProcessId>` baseline.
///
/// The W = 8 specialization pass (interleaved popcount accumulators in
/// `len`, single-accumulator branch-free `is_subset`/`is_disjoint`/
/// `is_empty`, `#[inline]` on every hot op) moved this box on the CI
/// reference machine (5 samples): `processet_w8_n512` 5.25µs → 4.67µs
/// per 256 op-mix pairs (~11%), `iterate_members_w8_n512` 541ns → 486ns
/// (~10%), `processet_w8_n128` flat at ~4.7µs. The remaining gap to
/// `wideset2_n128` (1.24µs) is the 4× limb traffic a 512-capacity set
/// pays on a 128-bit population — the batched SoA kernels (`e7_batched`)
/// are the lever that amortizes it across cells.
fn bench_wide_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_wide_sets");
    let pairs = 256usize;
    group.throughput(Throughput::Elements(pairs as u64));
    group.sample_size(50);

    let patterns: Vec<u128> = (0..=pairs)
        .map(|i| (mix(i as u64) as u128) << 64 | mix(i as u64 ^ 0xABCD) as u128)
        .collect();

    group.bench_function("u128_reference_n128", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for w in patterns.windows(2) {
                let (x, y) = (w[0], w[1]);
                acc += (x | y).count_ones() + (x & y).count_ones() + (x & !y).count_ones();
                acc += u32::from(x & !y == 0);
            }
            black_box(acc)
        });
    });

    let wide2: Vec<WideSet<2>> = patterns.iter().map(|&p| WideSet::from_bits(p)).collect();
    group.bench_function("wideset2_n128", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for w in wide2.windows(2) {
                let (x, y) = (w[0], w[1]);
                acc += x.union(y).len() + x.intersection(y).len() + x.difference(y).len();
                acc += usize::from(x.is_subset(y));
            }
            black_box(acc)
        });
    });

    let w8_narrow: Vec<ProcessSet> = patterns.iter().map(|&p| ProcessSet::from_bits(p)).collect();
    group.bench_function("processet_w8_n128", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for w in w8_narrow.windows(2) {
                let (x, y) = (w[0], w[1]);
                acc += x.union(y).len() + x.intersection(y).len() + x.difference(y).len();
                acc += usize::from(x.is_subset(y));
            }
            black_box(acc)
        });
    });

    // n = 512: ~170 members per set, strided across all eight limbs.
    let wide_sets: Vec<ProcessSet> = (0..=pairs)
        .map(|i| {
            (0..512usize)
                .filter(|&j| mix((i * 512 + j) as u64).is_multiple_of(3))
                .map(ProcessId::new)
                .collect()
        })
        .collect();
    group.bench_function("processet_w8_n512", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for w in wide_sets.windows(2) {
                let (x, y) = (w[0], w[1]);
                acc += x.union(y).len() + x.intersection(y).len() + x.difference(y).len();
                acc += usize::from(x.is_subset(y));
            }
            black_box(acc)
        });
    });

    let btree_sets: Vec<BTreeSet<ProcessId>> = wide_sets
        .iter()
        .map(|s| s.iter().collect::<BTreeSet<ProcessId>>())
        .collect();
    group.bench_function("btreeset_n512", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for w in btree_sets.windows(2) {
                let (x, y) = (&w[0], &w[1]);
                acc += x.union(y).count() + x.intersection(y).count() + x.difference(y).count();
                acc += usize::from(x.is_subset(y));
            }
            black_box(acc)
        });
    });

    // Iteration: drain the members of one wide set vs the BTreeSet.
    group.bench_function("iterate_members_w8_n512", |b| {
        let s = &wide_sets[0];
        b.iter(|| {
            let sum: usize = s.iter().map(ProcessId::index).sum();
            black_box(sum)
        });
    });
    group.bench_function("iterate_members_btree_n512", |b| {
        let s = &btree_sets[0];
        b.iter(|| {
            let sum: usize = s.iter().map(|p| p.index()).sum();
            black_box(sum)
        });
    });

    group.finish();
}

/// The scenario layer: compilation cost of both substrates and full
/// differential runs on the Theorem 8 border grid — the price of turning
/// the two-substrate architecture into a *tested* equivalence, tracked
/// commit over commit.
fn bench_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_scenario");
    group.sample_size(10);

    // The E3 border grid (every divisible point), with f = kn/(k+1) and
    // seed-derived crash layouts.
    let border: Vec<Scenario> = kset_impossibility::theorem8_border_cells(42)
        .iter()
        .map(Scenario::from_cell)
        .collect();
    group.throughput(Throughput::Elements(border.len() as u64));

    group.bench_function("compile_border_grid", |b| {
        // Compilation only: validate + build both engines, no execution.
        b.iter(|| {
            let mut units = 0usize;
            for sc in &border {
                let sim = sc.to_sim::<RoundAdapter<FloodMin>>().unwrap();
                let lock = to_lockstep::<FloodMin>(sc).unwrap();
                units += sim.n() + Engine::n(&lock);
            }
            black_box(units)
        });
    });

    group.bench_function("differential_border_grid", |b| {
        b.iter(|| {
            let mut agreed = 0usize;
            for sc in &border {
                let report = differential::check::<FloodMin>(sc).unwrap();
                assert!(report.agrees(), "border grid must agree");
                agreed += usize::from(report.sim.terminated);
            }
            black_box(agreed)
        });
    });

    group.finish();
}

/// The observation-layer guardrail: `drive` (the unit body run with a
/// `NoObserver`) vs `drive_observed` with a counting observer (the
/// cheapest real consumer) — on the step and round substrates. The
/// difference is what observing costs; the measured numbers live in
/// ARCHITECTURE.md's Observation layer section.
fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_observe");
    group.sample_size(30);
    let n = 8usize;

    let make_sim = || {
        SimEngine::new(
            Simulation::<TwoStage, _>::new(
                two_stage_inputs(3, &distinct_proposals(n)),
                CrashPlan::none(),
            ),
            RoundRobin::new(),
        )
    };
    group.bench_function("sim_drive_plain", |b| {
        b.iter(|| {
            let mut engine = make_sim();
            black_box(engine.drive(100_000).steps)
        });
    });
    group.bench_function("sim_drive_observed_counter", |b| {
        b.iter(|| {
            let mut engine = make_sim();
            let mut counter: EventCounter<kset_core::Val> = EventCounter::new();
            let status = engine.drive_observed(100_000, &mut counter);
            assert_eq!(counter.counts().steps, status.steps);
            black_box(counter.counts().sends)
        });
    });

    let values = distinct_proposals(64);
    let (f, k) = (3usize, 1usize);
    let make_lockstep =
        || LockStep::new(FloodMin::system(&values, f, k), floodmin_rounds(f, k), &[]);
    group.bench_function("lockstep_drive_plain", |b| {
        b.iter(|| {
            let mut engine = make_lockstep();
            black_box(engine.drive(u64::MAX).steps)
        });
    });
    group.bench_function("lockstep_drive_observed_counter", |b| {
        b.iter(|| {
            let mut engine = make_lockstep();
            let mut counter: EventCounter<kset_core::Val> = EventCounter::new();
            engine.drive_observed(u64::MAX, &mut counter);
            black_box(counter.counts().delivers)
        });
    });

    group.finish();
}

/// The batched lock-step gate: 16 same-shape scale cells (f = 3, k = 1,
/// so 4 scheduled rounds) swept one-at-a-time through the scalar
/// [`SweepGrid::record`](kset_bench::sweeps::SweepGrid::record) path vs
/// through the structure-of-arrays kernel
/// ([`record_batch`](kset_bench::sweeps::SweepGrid::record_batch)) one
/// lane at a time (B = 1) and fused (B = 16). All three produce identical
/// `CellRecord`s (the library and CI byte-identity gates pin that); this
/// group splits the throughput ratio into kernel specialization (scalar
/// vs B = 1) and batching (B = 1 vs B = 16) — the acceptance bar is ≥ 3×
/// for the kernel at B = 16 over the scalar path, for n ≥ 256.
///
/// The cells are synthetic (the catalog grid never repeats an `(n, f, k)`
/// point, so its largest same-shape group is 3 cells): 16 lanes per n,
/// each with its own `cell_seed`-derived crash layout.
fn bench_batched(c: &mut Criterion) {
    use kset_sim::sweep::{cell_seed, GridCell};

    let mut group = c.benchmark_group("e7_batched");
    group.sample_size(10);
    let grid = kset_bench::sweeps::grid("scale", 42).expect("catalog grid");
    let lanes = 16usize;
    group.throughput(Throughput::Elements(lanes as u64));
    for n in [256usize, 512] {
        let cells: Vec<GridCell> = (0..lanes)
            .map(|index| GridCell {
                index,
                n,
                f: 3,
                k: 1,
                seed: cell_seed(42, index),
            })
            .collect();
        let refs: Vec<&GridCell> = cells.iter().collect();
        group.bench_function(BenchmarkId::new("one_at_a_time", n), |b| {
            b.iter(|| {
                let records: Vec<_> = cells.iter().map(|cell| grid.record(cell)).collect();
                black_box(records.len())
            });
        });
        group.bench_function(BenchmarkId::new("batched_1", n), |b| {
            b.iter(|| {
                let records: usize = refs
                    .iter()
                    .map(|&cell| grid.record_batch(&[cell]).len())
                    .sum();
                black_box(records)
            });
        });
        group.bench_function(BenchmarkId::new("batched_16", n), |b| {
            b.iter(|| black_box(grid.record_batch(&refs).len()));
        });
    }
    group.finish();
}

/// The discrete-event substrate's idle-skip claim, measured. One flooding
/// workload (broadcast once, decide on full coverage; n = 16) runs four
/// ways:
///
/// * `sim_round_robin_eager` — the step substrate with eager delivery:
///   the dense baseline, 2n units.
/// * `sim_delay_bounded_2048` — the step substrate emulating latency with
///   [`DelayBounded`]: every unit of message age costs a scheduler pick,
///   so the run burns ~Δ idle steps before the first delivery.
/// * `des_timed_dense_1` / `des_timed_sparse_2048` — the discrete-event
///   engine at fixed latency 1 and 2048: virtual time between arrivals is
///   *skipped*, so both cost the same 2n units and the same wall time.
///
/// The win is the sparse pair: `des_timed_sparse_2048` stays flat where
/// `sim_delay_bounded_2048` scales with the latency bound.
fn bench_des(c: &mut Criterion) {
    use kset_sim::des::{DesEngine, Latency};
    use kset_sim::sched::delay_bounded::DelayBounded;
    use kset_sim::{Effects, Process, ProcessInfo};

    /// Broadcasts its input on the first step, then decides the minimum
    /// once it has seen values from all `n` processes.
    #[derive(Debug, Clone, Hash)]
    struct MinFlood {
        n: usize,
        seen: BTreeSet<u64>,
        sent: bool,
    }

    impl Process for MinFlood {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(info: ProcessInfo, input: u64) -> Self {
            MinFlood {
                n: info.n,
                seen: BTreeSet::from([input]),
                sent: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u64>],
            _fd: Option<&()>,
            effects: &mut Effects<u64, u64>,
        ) {
            if !self.sent {
                self.sent = true;
                let mine = *self.seen.iter().next().unwrap();
                effects.broadcast(mine);
            }
            self.seen.extend(delivered.iter().map(|e| e.payload));
            if self.seen.len() >= self.n {
                effects.decide(*self.seen.iter().next().unwrap());
            }
        }
    }

    let mut group = c.benchmark_group("e7_des");
    group.sample_size(10);
    let n = 16usize;
    let delta = 2048u64;
    let make_sim = || Simulation::<MinFlood, _>::new((0..n as u64).collect(), CrashPlan::none());

    group.bench_function("sim_round_robin_eager", |b| {
        b.iter(|| {
            let mut engine = SimEngine::new(make_sim(), RoundRobin::new());
            engine.drive(u64::MAX);
            assert_eq!(engine.distinct_decisions().len(), 1);
            black_box(engine.units())
        });
    });
    group.bench_function("sim_delay_bounded_2048", |b| {
        b.iter(|| {
            let mut engine = SimEngine::new(make_sim(), DelayBounded::new(delta));
            engine.drive(u64::MAX);
            assert_eq!(engine.distinct_decisions().len(), 1);
            black_box(engine.units())
        });
    });
    group.bench_function("des_timed_dense_1", |b| {
        b.iter(|| {
            let mut engine = DesEngine::timed(make_sim(), Latency::fixed(1), 0, 42);
            engine.drive(u64::MAX);
            assert_eq!(engine.distinct_decisions().len(), 1);
            black_box(engine.units())
        });
    });
    group.bench_function("des_timed_sparse_2048", |b| {
        b.iter(|| {
            let mut engine = DesEngine::timed(make_sim(), Latency::fixed(delta), 0, 42);
            engine.drive(u64::MAX);
            assert_eq!(engine.distinct_decisions().len(), 1);
            // The whole point: 2n units regardless of the latency bound.
            assert_eq!(engine.units(), 2 * n as u64);
            black_box(engine.units())
        });
    });
    group.finish();
}

fn bench_pasting_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_pasting_cost");
    group.sample_size(10);
    for blocks in [2usize, 3, 4, 6] {
        let n = blocks * 3;
        let parts: Vec<ProcessSet> = (0..blocks)
            .map(|b| (b * 3..(b + 1) * 3).map(ProcessId::new).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &parts, |b, parts| {
            b.iter(|| {
                let pasted = lemma12_no_fd::<TwoStage>(
                    || two_stage_inputs(3, &distinct_proposals(n)),
                    parts,
                    500_000,
                );
                assert!(pasted.verified);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_engines,
    bench_buffer_receive,
    bench_wide_sets,
    bench_scenario,
    bench_observe,
    bench_batched,
    bench_des,
    bench_pasting_cost
);
criterion_main!(benches);
