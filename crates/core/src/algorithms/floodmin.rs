//! FloodMin: synchronous-round k-set agreement.
//!
//! The classic algorithm (Chaudhuri et al.) for the fully favourable model
//! point: in each of `⌊f/k⌋ + 1` rounds every process broadcasts the
//! smallest value it has seen; after the last round it decides that
//! minimum. With at most `f` crash failures, at most `k` distinct values
//! survive: each round in which more than `k` "fresh" minima persist must
//! burn more than `k` crashes, and the adversary only has `f`.
//!
//! FloodMin complements the paper's story: at the *favourable* end of the
//! DDS lattice k-set agreement is solvable for **any** `f < n` — the
//! impossibility of Theorem 2 is driven purely by the asynchrony of
//! communication, not by the number of failures.

use kset_sim::observe::EventCounts;
use kset_sim::{ProcessId, ProcessSet, Scenario, SenderMap};

use crate::scenario::ScenarioRounds;
use crate::sync::{RoundCrash, RoundProcess, SyncOutcome};
use crate::task::Val;

/// The number of rounds FloodMin needs: `⌊f/k⌋ + 1`.
pub fn floodmin_rounds(f: usize, k: usize) -> usize {
    assert!(k >= 1, "k-set agreement needs k ≥ 1");
    f / k + 1
}

/// Per-process FloodMin state.
#[derive(Debug, Clone, Hash)]
pub struct FloodMin {
    min: Val,
    total_rounds: usize,
    rounds_done: usize,
}

impl FloodMin {
    /// Creates a FloodMin process with proposal `value`, running
    /// `total_rounds` rounds.
    pub fn new(value: Val, total_rounds: usize) -> Self {
        assert!(total_rounds >= 1, "at least one round");
        FloodMin {
            min: value,
            total_rounds,
            rounds_done: 0,
        }
    }

    /// Builds a full system of FloodMin processes for `f` failures and
    /// target `k`.
    pub fn system(values: &[Val], f: usize, k: usize) -> Vec<FloodMin> {
        let rounds = floodmin_rounds(f, k);
        values.iter().map(|v| FloodMin::new(*v, rounds)).collect()
    }
}

impl ScenarioRounds for FloodMin {
    /// One FloodMin process per scenario input, running the scenario's
    /// scheduled round count (which [`kset_sim::Scenario::favourable`]
    /// defaults to [`floodmin_rounds`]`(f, k)`).
    fn scenario_system(scenario: &Scenario) -> Vec<FloodMin> {
        scenario
            .inputs
            .iter()
            .map(|v| FloodMin::new(*v, scenario.rounds))
            .collect()
    }
}

/// One cell of a [`floodmin_batch`]: its proposal vector and crash
/// schedule. All lanes of a batch share one `(n, rounds)` shape.
#[derive(Debug, Clone)]
pub struct FloodMinLane {
    /// Proposal values, one per process (`values.len() == n`). Every
    /// value must be below [`Val::MAX`], which the kernel reserves as its
    /// crashed-lane sentinel.
    pub values: Vec<Val>,
    /// The lane's crash schedule, [`LockStep`](crate::sync::LockStep)
    /// semantics.
    pub crashes: Vec<RoundCrash>,
}

/// Runs `lanes.len()` independent FloodMin cells of shared shape
/// `(n, rounds)` as one structure-of-arrays computation.
///
/// The per-process minima of all lanes live in a single `n × B` buffer
/// (row-major by process, lane-minor), so the round body — "everyone
/// broadcasts its minimum, everyone keeps the smallest value heard" —
/// collapses to one branch-free column-minimum pass over `n × B`
/// contiguous words plus a select-update, with crash omissions applied
/// sparsely afterwards. Crashed slots carry a [`Val::MAX`] sentinel; each
/// lane keeps its own [`ProcessSet`] alive mask, touched only once per
/// crash, outside the column pass.
///
/// Each lane's `(SyncOutcome, EventCounts)` is **identical** to what a
/// scalar [`run_sync`](crate::sync::run_sync) of the same cell under an
/// [`EventCounter`](kset_sim::observe::EventCounter) produces — the
/// property the batched sweep's byte-identity gate rests on.
///
/// # Panics
///
/// Panics if a lane's proposal count differs from `n`, a proposal equals
/// [`Val::MAX`], a lane schedules two crashes for one process, or
/// `rounds` is zero.
pub fn floodmin_batch(
    n: usize,
    rounds: usize,
    lanes: &[FloodMinLane],
) -> Vec<(SyncOutcome, EventCounts)> {
    assert!(rounds >= 1, "at least one round");
    let b = lanes.len();
    if b == 0 {
        return Vec::new();
    }
    // kset-lint: allow(unchecked-capacity): floodmin_batch mirrors run_sync's documented panicking contract; sweep drivers validate n at grid construction
    let full = ProcessSet::full(n);
    // mins[p * B + lane]: process p's current minimum in each lane;
    // Val::MAX marks a crashed slot.
    let mut mins = vec![Val::MAX; n * b];
    let mut alive = vec![full; b];
    let mut alive_count = vec![n as u64; b];
    let mut counts = vec![EventCounts::default(); b];
    // Crash schedules bucketed by round; entries that can never fire in a
    // scalar run (pid ≥ n, round out of schedule) are dropped, but still
    // checked for the duplicate-pid contract first.
    let mut by_round: Vec<Vec<(usize, ProcessId, ProcessSet)>> = vec![Vec::new(); rounds + 1];
    for (lane, cell) in lanes.iter().enumerate() {
        assert_eq!(cell.values.len(), n, "lane {lane}: proposal count");
        let mut seen = ProcessSet::new();
        for c in &cell.crashes {
            assert!(seen.insert(c.pid), "duplicate crash for {}", c.pid);
            if c.pid.index() < n && (1..=rounds).contains(&c.round) {
                by_round[c.round].push((lane, c.pid, c.receivers));
            }
        }
        for (p, v) in cell.values.iter().enumerate() {
            assert!(*v < Val::MAX, "Val::MAX is the crashed-slot sentinel");
            mins[p * b + lane] = *v;
        }
    }
    // (lane, sent value, reach ∩ alive-after) of this round's crashers.
    let mut late: Vec<(usize, Val, ProcessSet)> = Vec::new();
    let mut col_min = vec![Val::MAX; b];
    for (round, round_crashes) in by_round.iter().enumerate().skip(1) {
        let alive_start: Vec<u64> = alive_count.clone();
        for c in counts.iter_mut() {
            c.rounds += 1;
        }
        for (lane, c) in counts.iter_mut().enumerate() {
            c.sends += alive_start[lane] * n as u64;
        }
        // Crash phase: withdraw each crasher from its lane before the
        // broadcast pass; its send reaches only its chosen receivers.
        late.clear();
        for &(lane, pid, receivers) in round_crashes {
            let slot = &mut mins[pid.index() * b + lane];
            let sent = *slot;
            *slot = Val::MAX;
            alive[lane].remove(pid);
            alive_count[lane] -= 1;
            let reach = receivers.intersection(full);
            counts[lane].dropped += (n - reach.len()) as u64;
            counts[lane].crashes += 1;
            late.push((lane, sent, reach));
        }
        // Broadcast pass: the column minimum over all n rows is the
        // smallest value any surviving sender broadcast this round
        // (crashed slots are Val::MAX and drop out); the select keeps
        // crashed slots at the sentinel.
        col_min.iter_mut().for_each(|m| *m = Val::MAX);
        for row in mins.chunks_exact(b) {
            for (m, v) in col_min.iter_mut().zip(row) {
                *m = (*m).min(*v);
            }
        }
        for row in mins.chunks_exact_mut(b) {
            for (v, m) in row.iter_mut().zip(&col_min) {
                let lowered = (*v).min(*m);
                *v = if *v == Val::MAX { Val::MAX } else { lowered };
            }
        }
        // Omission deliveries: each crasher's value still reaches the
        // survivors it chose.
        for (lane, sent, reach) in late.iter_mut() {
            *reach = reach.intersection(alive[*lane]);
            for p in reach.iter() {
                let slot = &mut mins[p.index() * b + *lane];
                *slot = (*slot).min(*sent);
            }
        }
        // Event arithmetic, matching an EventCounter on the scalar run:
        // every survivor consumed one message per round-start sender,
        // minus the crashers that omitted it.
        for (lane, c) in counts.iter_mut().enumerate() {
            c.delivers += alive_count[lane] * alive_start[lane];
        }
        for (lane, _, reach) in &late {
            counts[*lane].delivers -= alive_count[*lane] - reach.len() as u64;
        }
        if round == rounds {
            // FloodMin decides exactly at its final receive, so first
            // decisions are the processes still alive after it.
            for (lane, c) in counts.iter_mut().enumerate() {
                c.decides += alive_count[lane];
            }
        }
    }
    (0..b)
        .map(|lane| {
            let alive_set = alive[lane];
            let decisions = (0..n)
                .map(|p| {
                    alive_set
                        .contains(ProcessId::new(p))
                        .then(|| mins[p * b + lane])
                })
                .collect();
            let mut c = counts[lane];
            c.halts = 1;
            (
                SyncOutcome {
                    decisions,
                    crashed: full.difference(alive_set),
                    rounds,
                },
                c,
            )
        })
        .collect()
}

impl RoundProcess for FloodMin {
    type Msg = Val;
    /// The smallest value in the inbox, `None` if it is empty.
    type Heard = Option<Val>;

    fn message(&self, _round: usize) -> Val {
        self.min
    }

    fn hear(_round: usize, msgs: &SenderMap<Val>) -> Option<Val> {
        msgs.values().min().copied()
    }

    fn receive(&mut self, _round: usize, heard: &Option<Val>) {
        if let Some(m) = *heard {
            self.min = self.min.min(m);
        }
        self.rounds_done += 1;
    }

    fn decision(&self) -> Option<Val> {
        (self.rounds_done >= self.total_rounds).then_some(self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{run_sync, RoundCrash};
    use crate::task::distinct_proposals;
    use kset_sim::{ProcessId, ProcessSet};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn failure_free_run_is_consensus_on_minimum() {
        let values = vec![5, 2, 9, 4];
        let procs = FloodMin::system(&values, 0, 1);
        let out = run_sync(procs, floodmin_rounds(0, 1), &[]);
        assert_eq!(out.decisions, vec![Some(2); 4]);
    }

    #[test]
    fn rounds_formula() {
        assert_eq!(floodmin_rounds(0, 1), 1);
        assert_eq!(floodmin_rounds(3, 1), 4);
        assert_eq!(floodmin_rounds(3, 2), 2);
        assert_eq!(floodmin_rounds(4, 2), 3);
        assert_eq!(floodmin_rounds(5, 3), 2);
    }

    /// The classic worst case for consensus (k = 1): a chain of crashes,
    /// one per round, each reaching a single receiver. f+1 rounds defeat it.
    #[test]
    fn chained_crashes_do_not_break_consensus() {
        let n = 5;
        let f = 3;
        let values = distinct_proposals(n);
        let procs = FloodMin::system(&values, f, 1);
        let crashes: Vec<RoundCrash> = (0..f)
            .map(|r| RoundCrash {
                round: r + 1,
                pid: pid(r),
                receivers: [pid(r + 1)].into(),
            })
            .collect();
        let out = run_sync(procs, floodmin_rounds(f, 1), &crashes);
        let distinct = out.distinct_decisions();
        assert_eq!(distinct.len(), 1, "decisions: {:?}", out.decisions);
    }

    /// With only ⌊f/k⌋ rounds (one too few) the same chain CAN produce more
    /// than k values — showing the round bound is tight for k = 1.
    #[test]
    fn one_round_too_few_breaks_agreement() {
        let n = 5;
        let f = 3;
        let values = distinct_proposals(n);
        let rounds = floodmin_rounds(f, 1) - 1;
        let procs: Vec<FloodMin> = values.iter().map(|v| FloodMin::new(*v, rounds)).collect();
        let crashes: Vec<RoundCrash> = (0..f)
            .map(|r| RoundCrash {
                round: r + 1,
                pid: pid(r),
                receivers: [pid(r + 1)].into(),
            })
            .collect();
        let out = run_sync(procs, rounds, &crashes);
        assert!(
            out.distinct_decisions().len() > 1,
            "the chain must defeat {rounds} rounds: {:?}",
            out.decisions
        );
    }

    #[test]
    fn k_agreement_under_random_crash_patterns() {
        let n = 7;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(0..n); // up to n−1 crashes
            let k = rng.gen_range(1..=3usize);
            let values = distinct_proposals(n);
            let rounds = floodmin_rounds(f, k);
            let procs = FloodMin::system(&values, f, k);
            // Random crash schedule: f distinct processes, random rounds,
            // random receiver subsets.
            let mut victims: Vec<usize> = (0..n).collect();
            victims.shuffle(&mut rng);
            let crashes: Vec<RoundCrash> = victims[..f]
                .iter()
                .map(|&v| {
                    let receivers: ProcessSet =
                        (0..n).filter(|_| rng.gen_bool(0.5)).map(pid).collect();
                    RoundCrash {
                        round: rng.gen_range(1..=rounds),
                        pid: pid(v),
                        receivers,
                    }
                })
                .collect();
            let out = run_sync(procs, rounds, &crashes);
            let distinct = out.distinct_decisions();
            assert!(
                distinct.len() <= k,
                "seed {seed}: f={f} k={k} rounds={rounds} decisions={:?}",
                out.decisions
            );
            // All correct processes decided.
            for i in 0..n {
                if !out.crashed.contains(pid(i)) {
                    assert!(
                        out.decisions[i].is_some(),
                        "seed {seed}: p{} undecided",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn batched_floodmin_matches_scalar_under_random_schedules() {
        use kset_sim::observe::EventCounter;
        use kset_sim::Engine;

        use crate::sync::LockStep;

        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0xf100d ^ seed);
            let n = rng.gen_range(2..=10usize);
            let f = rng.gen_range(0..n);
            let k = rng.gen_range(1..=3usize);
            let rounds = floodmin_rounds(f, k);
            let lanes: Vec<FloodMinLane> = (0..rng.gen_range(1..=7usize))
                .map(|_| {
                    let values: Vec<Val> =
                        (0..n).map(|_| rng.gen_range(0..=1000u64) as Val).collect();
                    let mut victims: Vec<usize> = (0..n).collect();
                    victims.shuffle(&mut rng);
                    let crashes: Vec<RoundCrash> = victims[..f]
                        .iter()
                        .map(|&v| {
                            let receivers: ProcessSet =
                                (0..n).filter(|_| rng.gen_bool(0.5)).map(pid).collect();
                            RoundCrash {
                                round: rng.gen_range(1..=rounds),
                                pid: pid(v),
                                receivers,
                            }
                        })
                        .collect();
                    FloodMinLane { values, crashes }
                })
                .collect();
            let batched = floodmin_batch(n, rounds, &lanes);
            for (lane, cell) in lanes.iter().enumerate() {
                let procs: Vec<FloodMin> = cell
                    .values
                    .iter()
                    .map(|v| FloodMin::new(*v, rounds))
                    .collect();
                let mut engine = LockStep::new(procs, rounds, &cell.crashes);
                let mut counter: EventCounter<Val> = EventCounter::new();
                engine.drive_observed(u64::MAX, &mut counter);
                let scalar = engine.outcome();
                let (out, counts) = &batched[lane];
                assert_eq!(
                    (out.decisions.clone(), out.crashed, out.rounds),
                    (scalar.decisions, scalar.crashed, scalar.rounds),
                    "seed {seed} lane {lane} outcome (n={n} f={f} k={k})"
                );
                assert_eq!(
                    *counts,
                    counter.counts(),
                    "seed {seed} lane {lane} event totals (n={n} f={f} k={k})"
                );
            }
        }
    }

    #[test]
    fn batched_floodmin_empty_batch_is_empty() {
        assert!(floodmin_batch(4, 2, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate crash")]
    fn batched_floodmin_rejects_duplicate_crashes() {
        let c = |round| RoundCrash {
            round,
            pid: pid(0),
            receivers: ProcessSet::new(),
        };
        let lanes = [FloodMinLane {
            values: vec![1, 2],
            crashes: vec![c(1), c(2)],
        }];
        let _ = floodmin_batch(2, 2, &lanes);
    }

    #[test]
    #[should_panic(expected = "proposal count")]
    fn batched_floodmin_rejects_ragged_lanes() {
        let lanes = [FloodMinLane {
            values: vec![1, 2, 3],
            crashes: Vec::new(),
        }];
        let _ = floodmin_batch(2, 1, &lanes);
    }

    #[test]
    fn any_f_less_than_n_is_tolerated() {
        // The favourable model point solves k-set agreement for ANY f < n —
        // the contrast to Theorem 2's border.
        let n = 6;
        let f = n - 1;
        let k = 2;
        let values = distinct_proposals(n);
        let procs = FloodMin::system(&values, f, k);
        let crashes: Vec<RoundCrash> = (0..f)
            .map(|i| RoundCrash {
                round: i / k + 1,
                pid: pid(i),
                receivers: [pid(i + 1)].into(),
            })
            .collect();
        let out = run_sync(procs, floodmin_rounds(f, k), &crashes);
        assert!(out.distinct_decisions().len() <= k);
    }
}
