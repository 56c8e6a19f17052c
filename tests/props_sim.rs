//! Property-based tests for the simulator: determinism, schedule replay,
//! buffer conservation, and indistinguishability algebra.

use std::collections::BTreeSet;

use proptest::prelude::*;

use kset::core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset::core::task::distinct_proposals;
use kset::sim::indist::{compare_views, indistinguishable_for_set, ViewComparison};
use kset::sim::sched::random::SeededRandom;
use kset::sim::sched::scripted::Scripted;
use kset::sim::{Buffer, CrashPlan, Envelope, MsgId, ProcessId, ProcessSet, Simulation, Time};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinism: the same seed produces byte-identical traces.
    #[test]
    fn same_seed_same_trace(
        n in 2usize..7,
        l_seed in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let l = 1 + l_seed % n;
        let run = || {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(
                two_stage_inputs(l, &distinct_proposals(n)),
                CrashPlan::none(),
            );
            let mut sched = SeededRandom::new(seed);
            sim.run_to_report(&mut sched, 30_000)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.trace.events().len(), b.trace.events().len());
        // Traces are event-for-event identical.
        prop_assert!(a.trace.events() == b.trace.events());
    }

    /// Replay closure: extracting a run's schedule and replaying it in a
    /// fresh simulation reproduces the identical trace.
    #[test]
    fn schedule_replay_reproduces_trace(
        n in 2usize..7,
        seed in 0u64..10_000,
    ) {
        let l = 1 + (seed as usize) % n;
        let mk = || two_stage_inputs(l, &distinct_proposals(n));
        let original = {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(mk(), CrashPlan::none());
            let mut sched = SeededRandom::new(seed);
            sim.run_to_report(&mut sched, 30_000)
        };
        let replayed = {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(mk(), CrashPlan::none());
            let mut sched = Scripted::new(original.trace.schedule());
            sim.run_to_report(&mut sched, 30_000)
        };
        prop_assert_eq!(&original.decisions, &replayed.decisions);
        let all: ProcessSet = ProcessId::all(n).collect();
        prop_assert!(indistinguishable_for_set(&original.trace, &replayed.trace, all));
    }

    /// Indistinguishability is reflexive and symmetric on arbitrary runs.
    #[test]
    fn indistinguishability_algebra(
        n in 2usize..6,
        seed_a in 0u64..1_000,
        seed_b in 0u64..1_000,
    ) {
        let mk = || two_stage_inputs(2, &distinct_proposals(n));
        let run = |seed| {
            let mut sim: Simulation<TwoStage, _> = Simulation::new(mk(), CrashPlan::none());
            let mut sched = SeededRandom::new(seed);
            sim.run_to_report(&mut sched, 20_000)
        };
        let a = run(seed_a);
        let b = run(seed_b);
        for p in ProcessId::all(n) {
            // Reflexive.
            prop_assert_eq!(
                compare_views(&a.trace, &a.trace, p),
                if a.trace.decision_time(p).is_some() {
                    ViewComparison::EqualUntilDecision
                } else {
                    ViewComparison::UndecidedPrefix
                }
            );
            // Symmetric.
            prop_assert_eq!(
                compare_views(&a.trace, &b.trace, p).is_indistinguishable(),
                compare_views(&b.trace, &a.trace, p).is_indistinguishable()
            );
        }
    }

    /// Buffer conservation: everything pushed is either pending or taken,
    /// exactly once, whatever the extraction pattern.
    #[test]
    fn buffer_conservation(
        pushes in proptest::collection::vec((0usize..5, 0u64..1_000), 0..40),
        takes in proptest::collection::vec((0usize..5, 1usize..4), 0..20),
    ) {
        let mut buf: Buffer<u64> = Buffer::new();
        let mut next_id = 0u64;
        let mut pushed = BTreeSet::new();
        for (src, payload) in &pushes {
            let id = MsgId::new(next_id);
            next_id += 1;
            pushed.insert(id);
            buf.push(Envelope::new(id, pid(*src), pid(0), Time::new(next_id), *payload));
        }
        let mut envs = Vec::new();
        for (src, count) in &takes {
            buf.take_oldest_from(pid(*src), *count, &mut envs);
        }
        buf.take_all(&mut envs);
        let mut taken = BTreeSet::new();
        for env in envs {
            prop_assert!(taken.insert(env.id), "double delivery of {}", env.id);
        }
        prop_assert_eq!(taken, pushed);
        prop_assert!(buf.is_empty());
    }

    /// FIFO per source: per-source payload sequences are delivered in send
    /// order regardless of interleaved takes.
    #[test]
    fn buffer_fifo_per_source(
        pushes in proptest::collection::vec((0usize..3, 0u64..100), 1..30),
        take_pattern in proptest::collection::vec((0usize..3, 1usize..3), 1..30),
    ) {
        let mut buf: Buffer<u64> = Buffer::new();
        let mut sent: Vec<Vec<u64>> = vec![vec![]; 3];
        for (i, (src, payload)) in pushes.iter().enumerate() {
            sent[*src].push(*payload);
            buf.push(Envelope::new(
                MsgId::new(i as u64),
                pid(*src),
                pid(0),
                Time::new(i as u64),
                *payload,
            ));
        }
        let mut received: Vec<Vec<u64>> = vec![vec![]; 3];
        let mut envs = Vec::new();
        for (src, count) in take_pattern {
            envs.clear();
            buf.take_oldest_from(pid(src), count, &mut envs);
            received[src].extend(envs.iter().map(|env| env.payload));
        }
        for src in 0..3 {
            let k = received[src].len();
            prop_assert_eq!(&received[src][..], &sent[src][..k], "src {}", src);
        }
    }

    /// Failure-pattern merge is commutative, associative and idempotent.
    #[test]
    fn failure_pattern_merge_algebra(
        a in proptest::collection::vec(proptest::option::of(0u64..50), 5),
        b in proptest::collection::vec(proptest::option::of(0u64..50), 5),
        c in proptest::collection::vec(proptest::option::of(0u64..50), 5),
    ) {
        use kset::sim::FailurePattern;
        let fp = |v: &Vec<Option<u64>>| {
            FailurePattern::from_crash_times(v.iter().map(|o| o.map(Time::new)).collect())
        };
        let (a, b, c) = (fp(&a), fp(&b), fp(&c));
        prop_assert_eq!(a.merged_with(&b), b.merged_with(&a));
        prop_assert_eq!(
            a.merged_with(&b).merged_with(&c),
            a.merged_with(&b.merged_with(&c))
        );
        prop_assert_eq!(a.merged_with(&a), a.clone());
    }

    /// Projection then merge reconstructs a pattern split along any set
    /// boundary (the Lemma 11 failure-pattern surgery).
    #[test]
    fn failure_pattern_projection_split(
        times in proptest::collection::vec(proptest::option::of(0u64..50), 6),
        mask in 0u32..64,
    ) {
        use kset::sim::FailurePattern;
        let fp = FailurePattern::from_crash_times(
            times.iter().map(|o| o.map(Time::new)).collect(),
        );
        let d: ProcessSet =
            (0..6).filter(|i| mask & (1 << i) != 0).map(pid).collect();
        let complement = d.complement(6);
        let rebuilt = fp.projected_to(d).merged_with(&fp.projected_to(complement));
        prop_assert_eq!(rebuilt, fp);
    }
}
