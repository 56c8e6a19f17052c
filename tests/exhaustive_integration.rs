//! Exhaustive (bounded) verification of the paper's claims on small
//! systems, via the schedule explorer in `kset_sim::explore`.
//!
//! Randomized schedules *witness*; exhaustive enumeration *verifies*: for
//! small n, every scheduling and delivery choice within the bound is
//! covered, so these tests rule out adversarial schedules entirely — the
//! strongest executable statement the simulator can make.

use std::collections::BTreeSet;

use kset::core::algorithms::naive::{DecideOwn, LeaderAdopt};
use kset::core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset::core::task::distinct_proposals;
use kset::fd::PartitionSigmaOmega;
use kset::sim::explore::{explore, Branching, ExploreConfig};
use kset::sim::sched::Delivery;
use kset::sim::{CrashPlan, ProcessId, ProcessSet, Simulation, Time};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn distinct_decisions<P, O>(sim: &Simulation<P, O>) -> BTreeSet<P::Output>
where
    P: kset::sim::Process,
    P::Fd: std::hash::Hash,
    O: kset::sim::Oracle<Sample = P::Fd>,
{
    sim.decisions().iter().flatten().cloned().collect()
}

#[test]
fn two_stage_consensus_exhaustive_n3() {
    // n = 3, L = 2, no crashes: ⌊3/2⌋ = 1 — consensus under EVERY schedule.
    let sim: Simulation<TwoStage, _> = Simulation::new(
        two_stage_inputs(2, &distinct_proposals(3)),
        CrashPlan::none(),
    );
    let config = ExploreConfig {
        max_depth: 14,
        max_states: 400_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore(&sim, &config, |s| {
        let d = distinct_decisions(s);
        if d.len() > 1 {
            return Err(format!("{} distinct decisions", d.len()));
        }
        Ok(())
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.truncated, "every schedule fits the bound");
    assert_eq!((report.states_expanded, report.terminals), (246, 43));
}

#[test]
fn two_stage_with_initial_crash_exhaustive() {
    // n = 3, f = 1 initially dead, L = n − f = 2: k = 1 still (⌊3/2⌋ = 1).
    for dead in 0..3 {
        let sim: Simulation<TwoStage, _> = Simulation::new(
            two_stage_inputs(2, &distinct_proposals(3)),
            CrashPlan::initially_dead([pid(dead)]),
        );
        let config = ExploreConfig {
            max_depth: 12,
            max_states: 300_000,
            branching: Branching::NoneOrAll,
        };
        let report = explore(&sim, &config, |s| {
            let d = distinct_decisions(s);
            if d.len() > 1 {
                return Err(format!("{} distinct decisions", d.len()));
            }
            if d.iter().any(|v| *v == dead as u64) {
                return Err("decided a dead process's value without hearing it".into());
            }
            Ok(())
        });
        assert!(
            report.violation.is_none(),
            "dead={dead}: {:?}",
            report.violation
        );
        assert!(!report.truncated, "dead={dead}: truncated");
        assert_eq!(
            (report.states_expanded, report.terminals),
            (9, 1),
            "dead={dead}"
        );
    }
}

#[test]
fn two_stage_per_source_branching_exhaustive() {
    // The stronger adversary (per-source delivery subsets) on n = 3.
    let sim: Simulation<TwoStage, _> = Simulation::new(
        two_stage_inputs(2, &distinct_proposals(3)),
        CrashPlan::none(),
    );
    let config = ExploreConfig {
        max_depth: 64,
        max_states: 400_000,
        branching: Branching::PerSource,
    };
    let report = explore(&sim, &config, |s| {
        let d = distinct_decisions(s);
        if d.len() > 1 {
            return Err(format!("{} distinct decisions", d.len()));
        }
        Ok(())
    });
    assert!(
        report.verified(),
        "truncated={} violation={:?}",
        report.truncated,
        report.violation
    );
    assert_eq!((report.states_expanded, report.terminals), (2263, 153));
}

#[test]
fn two_stage_n4_one_dead_per_source_exhaustive() {
    // n = 4, f = 1 initially dead, L = n − f = 3: ⌊4/3⌋ = 1 decision under
    // every per-source schedule, and never the dead process's value.
    let dead = 3;
    let sim: Simulation<TwoStage, _> = Simulation::new(
        two_stage_inputs(3, &distinct_proposals(4)),
        CrashPlan::initially_dead([pid(dead)]),
    );
    let config = ExploreConfig {
        max_depth: 64,
        max_states: 400_000,
        branching: Branching::PerSource,
    };
    let report = explore(&sim, &config, |s| {
        let d = distinct_decisions(s);
        if d.len() > 1 {
            return Err(format!("{} distinct decisions", d.len()));
        }
        if d.contains(&(dead as u64)) {
            return Err("decided a dead process's value".into());
        }
        Ok(())
    });
    assert!(
        report.verified(),
        "truncated={} violation={:?}",
        report.truncated,
        report.violation
    );
    assert_eq!((report.states_expanded, report.terminals), (764, 8));
}

#[test]
fn decide_own_violation_found_automatically() {
    // The explorer finds a consensus violation of DecideOwn without any
    // handcrafted adversary.
    let sim: Simulation<DecideOwn, _> = Simulation::new(distinct_proposals(2), CrashPlan::none());
    let report = explore(&sim, &ExploreConfig::default(), |s| {
        let d = distinct_decisions(s);
        if d.len() > 1 {
            return Err(format!("{} distinct decisions", d.len()));
        }
        Ok(())
    });
    let v = report.violation.expect("violation exists");
    assert!(v.path.len() <= 4, "a short schedule suffices: {:?}", v.path);
}

#[test]
fn explorer_rediscovers_theorem10_violation() {
    // n = 4, k = 2, partition layout D̄ = {p1,p2,p3}, D1 = {p4}: the
    // explorer finds a run of the (Σ2, Ω2) candidate with 3 > k = 2
    // distinct decisions all by itself — no partition scheduler, no
    // handcrafted solo runs. The oracle is the legal partition detector of
    // Definition 7.
    let n = 4;
    let k = 2;
    let blocks: Vec<ProcessSet> = vec![[pid(0), pid(1), pid(2)].into(), [pid(3)].into()];
    let ld = [pid(0), pid(1)].into();
    let oracle = PartitionSigmaOmega::new(n, blocks, Time::new(1_000_000), ld);
    let sim: Simulation<LeaderAdopt, _> =
        Simulation::with_oracle(distinct_proposals(n), oracle, CrashPlan::none());
    let config = ExploreConfig {
        max_depth: 10,
        max_states: 300_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore(&sim, &config, |s| {
        let d = distinct_decisions(s);
        if d.len() > k {
            return Err(format!("{} distinct decisions > k = {k}", d.len()));
        }
        Ok(())
    });
    let v = report
        .violation
        .expect("Theorem 10's violation must be reachable");
    // The DFS order is part of the explorer's contract: the same violation
    // after the same number of expansions, down the same schedule.
    assert_eq!(report.states_expanded, 7);
    let path: Vec<(usize, Delivery)> = v
        .path
        .iter()
        .map(|c| (c.pid.index(), c.delivery.clone()))
        .collect();
    assert_eq!(
        path,
        [
            (3, Delivery::None),
            (2, Delivery::All),
            (1, Delivery::None),
            (0, Delivery::None)
        ]
    );
    // Replay the discovered schedule and confirm.
    let blocks: Vec<ProcessSet> = vec![[pid(0), pid(1), pid(2)].into(), [pid(3)].into()];
    let oracle = PartitionSigmaOmega::new(n, blocks, Time::new(1_000_000), [pid(0), pid(1)].into());
    let mut replay: Simulation<LeaderAdopt, _> =
        Simulation::with_oracle(distinct_proposals(n), oracle, CrashPlan::none());
    for choice in &v.path {
        replay.step(choice.pid, choice.delivery.clone()).unwrap();
    }
    assert!(distinct_decisions(&replay).len() > k);
}

#[test]
fn barrier_free_algorithms_terminate_in_every_schedule() {
    // Bounded liveness: within the explored bound, every maximal run of
    // DecideOwn terminates (all correct decided) — terminals > 0 and no
    // stuck states (every non-terminal has a move).
    let sim: Simulation<DecideOwn, _> = Simulation::new(distinct_proposals(3), CrashPlan::none());
    let config = ExploreConfig {
        max_depth: 8,
        max_states: 100_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore(&sim, &config, |_| Ok(()));
    assert!(report.terminals > 0);
    assert!(report.violation.is_none());
}
