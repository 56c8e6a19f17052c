//! Model checker: exhaustively verify (or refute) k-set agreement on
//! small systems.
//!
//! Randomized schedules can only *witness* correctness; the bounded
//! explorer enumerates **every** scheduling and delivery choice, so for
//! small n it verifies safety outright — and finds violating schedules of
//! flawed algorithms automatically, including the Theorem 10 violation,
//! with no handcrafted adversary at all.
//!
//! ```sh
//! cargo run --release --example model_checker
//! ```

use std::collections::BTreeSet;

use kset::core::algorithms::naive::LeaderAdopt;
use kset::core::algorithms::two_stage::{two_stage_inputs, TwoStage};
use kset::core::task::distinct_proposals;
use kset::fd::PartitionSigmaOmega;
use kset::sim::explore::{explore, Branching, ExploreConfig};
use kset::sim::{CrashPlan, ProcessId, ProcessSet, Simulation, Time};

fn main() {
    println!("== bounded model checking of k-set agreement ==\n");

    // 1. Verify: two-stage protocol, n = 3, L = 2 — consensus under EVERY
    //    schedule (within the bound).
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
        let d: BTreeSet<u64> = s.decisions().iter().flatten().copied().collect();
        if d.len() > 1 {
            Err(format!("{} distinct decisions", d.len()))
        } else {
            Ok(())
        }
    });
    println!("two-stage (n=3, L=2), property: consensus");
    println!(
        "  explored {} configurations, {} terminal; violation: {}",
        report.states_expanded,
        report.terminals,
        if report.violation.is_none() {
            "none"
        } else {
            "FOUND"
        },
    );
    assert!(report.violation.is_none());
    assert!(!report.truncated, "every schedule fits the bound");

    // 2. Refute: the (Σ2, Ω2) LeaderAdopt candidate on n = 4, k = 2, with
    //    the partition detector of Definition 7 — the explorer finds the
    //    Theorem 10 violation by itself.
    let pid = ProcessId::new;
    let blocks: Vec<ProcessSet> = vec![[pid(0), pid(1), pid(2)].into(), [pid(3)].into()];
    let oracle = PartitionSigmaOmega::new(4, blocks, Time::new(1_000_000), [pid(0), pid(1)].into());
    let sim: Simulation<LeaderAdopt, _> =
        Simulation::with_oracle(distinct_proposals(4), oracle, CrashPlan::none());
    let report = explore(&sim, &config, |s| {
        let d: BTreeSet<u64> = s.decisions().iter().flatten().copied().collect();
        if d.len() > 2 {
            Err(format!("{} distinct decisions > k = 2", d.len()))
        } else {
            Ok(())
        }
    });
    println!("\nLeaderAdopt with (Σ'2, Ω'2) (n=4), property: 2-agreement");
    match &report.violation {
        Some(v) => {
            println!(
                "  VIOLATION found after exploring {} configurations:",
                report.states_expanded
            );
            println!("  reason: {}", v.reason);
            println!("  schedule ({} steps):", v.path.len());
            for (i, c) in v.path.iter().enumerate() {
                println!("    {}. step {} with {:?}", i + 1, c.pid, c.delivery);
            }
            println!("  — the Theorem 10 partitioning run, rediscovered automatically.");
        }
        None => unreachable!("Theorem 10 guarantees a violation exists"),
    }
}
