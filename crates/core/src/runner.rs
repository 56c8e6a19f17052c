//! Convenience runners: one-liners for the common (algorithm, scheduler,
//! crash plan) combinations used by tests, examples, and the experiment
//! harness.
//!
//! Every helper builds a [`SimEngine`] — the step-level substrate behind
//! the unified [`Engine`](kset_sim::Engine) trait — and drives it to
//! completion with [`SimEngine::drive_to_report`]. Any other run, on any
//! substrate, calls [`Engine::drive`](kset_sim::Engine::drive) or
//! [`Engine::drive_observed`](kset_sim::Engine::drive_observed) itself.

use kset_sim::sched::random::SeededRandom;
use kset_sim::sched::round_robin::RoundRobin;
use kset_sim::sched::Scheduler;
use kset_sim::{CrashPlan, NoOracle, Oracle, Process, RunReport, SimEngine, Simulation};

/// Builds the [`SimEngine`] for an algorithm, oracle and scheduler, and
/// drives it to completion within `max_steps`.
fn drive<P, O, S>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    sched: S,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
    S: Scheduler<P::Msg>,
{
    // kset-lint: allow(unchecked-capacity): convenience runner mirroring Simulation::with_oracle's documented panicking contract for oversized input vectors
    let sim: Simulation<P, O> = Simulation::with_oracle(inputs, oracle, plan);
    SimEngine::new(sim, sched).drive_to_report(max_steps)
}

/// Runs an oracle-less algorithm under fair round-robin scheduling.
pub fn run_round_robin<P>(
    inputs: Vec<P::Input>,
    plan: CrashPlan,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process<Fd = ()>,
{
    drive::<P, _, _>(inputs, NoOracle, plan, RoundRobin::new(), max_steps)
}

/// Runs an oracle-less algorithm under seeded random scheduling.
pub fn run_seeded<P>(
    inputs: Vec<P::Input>,
    plan: CrashPlan,
    seed: u64,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process<Fd = ()>,
{
    let sched = SeededRandom::new(seed).with_fairness_window(16);
    drive::<P, _, _>(inputs, NoOracle, plan, sched, max_steps)
}

/// Runs an algorithm with a failure-detector oracle under round-robin.
pub fn run_round_robin_with_oracle<P, O>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
{
    drive::<P, _, _>(inputs, oracle, plan, RoundRobin::new(), max_steps)
}

/// Runs an algorithm with a failure-detector oracle under seeded random
/// scheduling.
pub fn run_seeded_with_oracle<P, O>(
    inputs: Vec<P::Input>,
    oracle: O,
    plan: CrashPlan,
    seed: u64,
    max_steps: u64,
) -> RunReport<P::Output>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd>,
{
    let sched = SeededRandom::new(seed).with_fairness_window(16);
    drive::<P, _, _>(inputs, oracle, plan, sched, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive::DecideOwn;
    use crate::algorithms::two_stage::{two_stage_inputs, TwoStage};
    use crate::task::distinct_proposals;
    use kset_sim::{ProcessId, ProcessSet};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn round_robin_runner_works() {
        let report = run_round_robin::<DecideOwn>(distinct_proposals(3), CrashPlan::none(), 100);
        assert!(report.all_correct_decided());
    }

    #[test]
    fn seeded_runner_is_reproducible() {
        let a = run_seeded::<TwoStage>(
            two_stage_inputs(2, &distinct_proposals(4)),
            CrashPlan::none(),
            7,
            100_000,
        );
        let b = run_seeded::<TwoStage>(
            two_stage_inputs(2, &distinct_proposals(4)),
            CrashPlan::none(),
            7,
            100_000,
        );
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn partitioned_runner_isolates_blocks() {
        // Two-stage with L = 2 under a {p1,p2} | {p3,p4} partition: each
        // block decides among its own values.
        use kset_sim::sched::partition::{PartitionScheduler, ReleasePolicy};

        let n = 4;
        let blocks: Vec<ProcessSet> = vec![[pid(0), pid(1)].into(), [pid(2), pid(3)].into()];
        let report = SimEngine::new(
            Simulation::<TwoStage, _>::new(
                two_stage_inputs(2, &distinct_proposals(n)),
                CrashPlan::none(),
            ),
            PartitionScheduler::new(blocks, ReleasePolicy::AfterAllDecided),
        )
        .drive_to_report(100_000);
        assert!(report.all_correct_decided());
        assert_eq!(report.decisions[0], Some(0));
        assert_eq!(report.decisions[2], Some(2));
        assert_eq!(report.distinct_decisions.len(), 2);
    }
}
