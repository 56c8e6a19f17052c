//! Scenario adapters for the round-level substrate, and the differential
//! harness over the three substrates.
//!
//! `kset-sim`'s [`Scenario`] is the declarative layer: one value that
//! compiles to every execution substrate. This module supplies the
//! round-level half and the machinery that makes them testable:
//!
//! * [`ScenarioRounds`] — round-based algorithms (FloodMin) constructible
//!   from a scenario; [`to_lockstep`] compiles a scenario to a
//!   [`LockStep`] executor (each [`ScenarioCrash`] becomes a [`RoundCrash`]
//!   verbatim, initially-dead processes become round-1 crashes that reach
//!   nobody).
//! * [`RoundAdapter`] — runs any round-based algorithm on the *step-level*
//!   substrate: local step `r` broadcasts the round-`r` message and local
//!   step `r + 1` consumes the round-`r` inbox, so under the scenario's
//!   lock-step schedule family the compiled [`Simulation`] is step-for-step
//!   equivalent to the round executor — and the step-level crash plan's
//!   final-step send omission lands exactly on the round message the
//!   round-level crash partially delivers.
//! * [`differential`] — drives the step-level and round-level
//!   compilations of one scenario, plus the discrete-event engine's timed
//!   replay of its lock-step projection, through the [`Engine`] trait and
//!   compares decisions, k-Agreement and termination, reporting
//!   divergences instead of panicking (under asynchronous schedule
//!   families divergence is the *expected* outcome — the paper's border,
//!   observed differentially).
//!
//! [`Simulation`]: kset_sim::Simulation
//! [`Engine`]: kset_sim::Engine
//! [`ScenarioCrash`]: kset_sim::ScenarioCrash

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use kset_sim::{
    Effects, Envelope, Process, ProcessInfo, ProcessSet, Scenario, ScenarioError, ScenarioProcess,
    SenderMap,
};

use crate::sync::{LockStep, RoundCrash, RoundProcess};
use crate::task::Val;

/// A round-based algorithm that can be instantiated from a [`Scenario`] —
/// the round-level counterpart of [`ScenarioProcess`].
pub trait ScenarioRounds: RoundProcess {
    /// Builds the system of round processes for `scenario` (one per
    /// process, running `scenario.rounds` rounds).
    fn scenario_system(scenario: &Scenario) -> Vec<Self>;
}

/// The round-level projection of a scenario's crash description: each
/// [`ScenarioCrash`](kset_sim::ScenarioCrash) maps verbatim via
/// [`RoundCrash::from_scenario_crash`], and every initially-dead process
/// becomes a round-1 crash delivering to nobody (it contributes nothing and
/// is marked crashed — exactly the step-level "never steps").
pub fn round_crashes(scenario: &Scenario) -> Vec<RoundCrash> {
    let mut crashes: Vec<RoundCrash> = scenario
        .initially_dead
        .iter()
        .map(|pid| RoundCrash {
            round: 1,
            pid,
            receivers: ProcessSet::new(),
        })
        .collect();
    crashes.extend(scenario.crashes.iter().map(RoundCrash::from_scenario_crash));
    crashes
}

/// Compiles a scenario to the round-level substrate: a [`LockStep`]
/// executor over `P`'s scenario system with the scenario's crash
/// description as round crashes. Drive it for `scenario.rounds` units.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] of [`Scenario::validate`].
pub fn to_lockstep<P: ScenarioRounds>(scenario: &Scenario) -> Result<LockStep<P>, ScenarioError> {
    scenario.validate()?;
    Ok(LockStep::try_new(
        P::scenario_system(scenario),
        scenario.rounds,
        &round_crashes(scenario),
    )?)
}

/// A round message in flight on the step-level substrate: the payload plus
/// the round it belongs to, so the receiving adapter can slot late or early
/// deliveries into the right round inbox.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoundMsg<M> {
    /// The 1-based round this message belongs to.
    pub round: usize,
    /// The algorithm's round message.
    pub payload: M,
}

/// Input of a [`RoundAdapter`] process: the pre-built round process and the
/// number of rounds it runs.
#[derive(Debug, Clone)]
pub struct RoundAdapterInput<P> {
    /// The initial round-process state.
    pub process: P,
    /// Total rounds to execute.
    pub rounds: usize,
}

/// Runs a [`RoundProcess`] on the step-level substrate.
///
/// Local step `s` first consumes the round-`s − 1` inbox (whatever has
/// arrived by then) and then broadcasts the round-`s` message, computed
/// from the post-receive state — the same data flow as one lock-step round.
/// Messages are tagged with their round and stashed until the adapter
/// reaches that round, so asynchronous schedules produce *some* execution
/// (with possibly incomplete inboxes) rather than a crash: divergence from
/// the round executor is then observable, which is what the differential
/// harness reports.
///
/// Under the lock-step schedule family (fair round-robin, eager delivery)
/// every round-`r` message is in the receiver's buffer before its step
/// `r + 1`, so the adapter's inboxes equal the round executor's and the two
/// substrates decide identically; `tests` and the repo-level conformance
/// suite assert this on the Theorem 8 border grid.
#[derive(Debug, Clone)]
pub struct RoundAdapter<P: RoundProcess> {
    inner: P,
    n: usize,
    total_rounds: usize,
    /// Completed local steps.
    steps: usize,
    /// Arrived-but-not-yet-consumed round messages, keyed by round.
    stash: BTreeMap<usize, Vec<(kset_sim::ProcessId, P::Msg)>>,
}

impl<P: RoundProcess> RoundAdapter<P> {
    /// Read access to the wrapped round process (for white-box tests).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The round whose message this adapter broadcasts next (1-based), or
    /// `None` once all rounds are sent.
    pub fn next_round(&self) -> Option<usize> {
        (self.steps < self.total_rounds).then_some(self.steps + 1)
    }
}

impl<P> Hash for RoundAdapter<P>
where
    P: RoundProcess + Hash,
    P::Msg: Hash,
{
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.n.hash(state);
        self.total_rounds.hash(state);
        self.steps.hash(state);
        self.stash.hash(state);
    }
}

impl<P> Process for RoundAdapter<P>
where
    P: RoundProcess + Hash + 'static,
    P::Msg: PartialEq + Hash + 'static,
{
    type Msg = RoundMsg<P::Msg>;
    type Input = RoundAdapterInput<P>;
    type Output = Val;
    type Fd = ();

    fn init(info: ProcessInfo, input: RoundAdapterInput<P>) -> Self {
        RoundAdapter {
            inner: input.process,
            n: info.n,
            total_rounds: input.rounds,
            steps: 0,
            stash: BTreeMap::new(),
        }
    }

    fn step(
        &mut self,
        delivered: &[Envelope<RoundMsg<P::Msg>>],
        _fd: Option<&()>,
        effects: &mut Effects<RoundMsg<P::Msg>, Val>,
    ) {
        for env in delivered {
            self.stash
                .entry(env.payload.round)
                .or_default()
                .push((env.src, env.payload.payload.clone()));
        }
        self.steps += 1;
        // Receive the previous round with whatever arrived by now.
        if self.steps >= 2 && self.steps - 1 <= self.total_rounds {
            let round = self.steps - 1;
            let mut inbox: SenderMap<P::Msg> = SenderMap::with_capacity(self.n);
            for (src, msg) in self.stash.remove(&round).unwrap_or_default() {
                inbox.insert(src, msg);
            }
            self.inner.receive(round, &P::hear(round, &inbox));
        }
        // Send this round's message, computed from the post-receive state.
        // A scenario crash after `round` local steps therefore omits
        // exactly the round-`round` broadcast — the mid-round partial
        // delivery of the lock-step executor.
        if self.steps <= self.total_rounds {
            effects.broadcast(RoundMsg {
                round: self.steps,
                payload: self.inner.message(self.steps),
            });
        }
        if let Some(v) = self.inner.decision() {
            effects.decide(v);
        }
    }
}

impl<P> ScenarioProcess for RoundAdapter<P>
where
    P: ScenarioRounds + Hash + 'static,
    P::Msg: PartialEq + Hash + 'static,
{
    fn scenario_inputs(scenario: &Scenario) -> Vec<RoundAdapterInput<P>> {
        P::scenario_system(scenario)
            .into_iter()
            .map(|process| RoundAdapterInput {
                process,
                rounds: scenario.rounds,
            })
            .collect()
    }
}

/// Differential conformance between the compilations of one scenario —
/// step-level, round-level, and discrete-event.
pub mod differential {
    use std::collections::BTreeSet;
    use std::hash::Hash;

    use kset_sim::observe::{NoObserver, Observer};
    use kset_sim::{Engine, ProcessId, Scenario, ScenarioError, ScheduleFamily};

    use super::{to_lockstep, RoundAdapter, ScenarioRounds};
    use crate::task::Val;

    /// What one substrate produced for a scenario.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SubstrateOutcome {
        /// Per-process decisions.
        pub decisions: Vec<Option<Val>>,
        /// The distinct decision values — the quantity k-Agreement bounds.
        pub distinct: BTreeSet<Val>,
        /// Whether every correct process (under the scenario's crash
        /// description) decided.
        pub terminated: bool,
        /// Engine units executed (steps or rounds).
        pub units: u64,
    }

    impl SubstrateOutcome {
        /// Whether the outcome satisfies k-Agreement for the given `k`.
        pub fn k_agreement(&self, k: usize) -> bool {
            self.distinct.len() <= k
        }
    }

    /// One observed disagreement between the substrates.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Divergence {
        /// The substrates decided different value sets (the sets
        /// themselves are recorded — equal cardinalities can still
        /// diverge).
        DistinctValues {
            /// Distinct decisions on the step-level substrate.
            sim: BTreeSet<Val>,
            /// Distinct decisions on the round-level substrate.
            lockstep: BTreeSet<Val>,
        },
        /// A correct process decided differently (or only on one side).
        Decision {
            /// The diverging process.
            pid: ProcessId,
            /// Its step-level decision.
            sim: Option<Val>,
            /// Its round-level decision.
            lockstep: Option<Val>,
        },
        /// Only one substrate terminated (all correct decided).
        Termination {
            /// Step-level termination verdict.
            sim: bool,
            /// Round-level termination verdict.
            lockstep: bool,
        },
        /// The substrates disagree on whether k-Agreement holds.
        KAgreement {
            /// The scenario's agreement degree.
            k: usize,
            /// Step-level verdict.
            sim: bool,
            /// Round-level verdict.
            lockstep: bool,
        },
        /// The discrete-event substrate decided different value sets than
        /// the round-level reference.
        DesDistinctValues {
            /// Distinct decisions on the discrete-event substrate.
            des: BTreeSet<Val>,
            /// Distinct decisions on the round-level substrate.
            lockstep: BTreeSet<Val>,
        },
        /// A correct process decided differently on the discrete-event
        /// substrate than on the round-level reference.
        DesDecision {
            /// The diverging process.
            pid: ProcessId,
            /// Its discrete-event decision.
            des: Option<Val>,
            /// Its round-level decision.
            lockstep: Option<Val>,
        },
        /// Only one of discrete-event and round-level terminated.
        DesTermination {
            /// Discrete-event termination verdict.
            des: bool,
            /// Round-level termination verdict.
            lockstep: bool,
        },
        /// Discrete-event and round-level disagree on k-Agreement.
        DesKAgreement {
            /// The scenario's agreement degree.
            k: usize,
            /// Discrete-event verdict.
            des: bool,
            /// Round-level verdict.
            lockstep: bool,
        },
    }

    /// The full differential report for one scenario.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DiffReport {
        /// System size.
        pub n: usize,
        /// Failure budget.
        pub f: usize,
        /// Agreement degree.
        pub k: usize,
        /// Whether the scenario ran under the lock-step schedule family —
        /// the only family under which agreement is *guaranteed*.
        pub lock_step_family: bool,
        /// The step-level outcome.
        pub sim: SubstrateOutcome,
        /// The round-level outcome.
        pub lockstep: SubstrateOutcome,
        /// The discrete-event outcome: the scenario's lock-step projection
        /// replayed on the timed engine at fixed latency 1 (one unit per
        /// process step).
        pub des: SubstrateOutcome,
        /// Every observed disagreement (empty = substrates agree). Both
        /// pairings are recorded: step-vs-round in the `sim`-carrying
        /// variants, discrete-event-vs-round in the `Des*` variants.
        pub divergences: Vec<Divergence>,
    }

    impl DiffReport {
        /// Whether the two substrates produced equivalent runs.
        pub fn agrees(&self) -> bool {
            self.divergences.is_empty()
        }
    }

    /// Compiles `scenario` to all three substrates — step-level, round
    /// executor, and the discrete-event engine — drives each through the
    /// [`Engine`] trait, and compares decision values, per-process
    /// decisions of correct processes, k-Agreement, and termination (each
    /// non-reference substrate against the round-level reference).
    ///
    /// Divergence is *reported*, never fatal: under asynchronous schedule
    /// families the step-level run legitimately sees incomplete round
    /// inboxes and the report flags the resulting disagreements. The
    /// discrete-event leg runs the scenario's lock-step projection
    /// ([`Scenario::to_des`] at fixed latency 1), which, like the round
    /// executor, does not depend on the unit schedule family; it is an
    /// independent check of the round executor, not a replay of the step
    /// substrate's schedule.
    ///
    /// The natively timed family
    /// ([`ScheduleFamily::Timed`](kset_sim::ScheduleFamily)) has no
    /// step-level compilation, so `check` rejects it — compare a timed
    /// run against the round executor directly (see
    /// `tests/scenario_differential.rs`).
    ///
    /// # Errors
    ///
    /// Returns the scenario's first [`ScenarioError`] if it fails
    /// validation or compilation (the same error both compilers raise).
    pub fn check<P>(scenario: &Scenario) -> Result<DiffReport, ScenarioError>
    where
        P: ScenarioRounds + Hash + 'static,
        P::Msg: PartialEq + Hash + 'static,
    {
        check_observed::<P>(scenario, &mut NoObserver, &mut NoObserver, &mut NoObserver)
    }

    /// As [`check`], with one observer attached to each substrate's run —
    /// the same scenario, the same drives, every event reported. This is
    /// how observation itself is conformance-tested: an
    /// [`EventCounter`](kset_sim::observe::EventCounter) on each side must
    /// agree on transmitted sends, decisions and crashes under the
    /// lock-step family (see `tests/scenario_differential.rs`).
    ///
    /// # Errors
    ///
    /// As [`check`].
    pub fn check_observed<P>(
        scenario: &Scenario,
        sim_obs: &mut impl Observer<Val>,
        lockstep_obs: &mut impl Observer<Val>,
        des_obs: &mut impl Observer<Val>,
    ) -> Result<DiffReport, ScenarioError>
    where
        P: ScenarioRounds + Hash + 'static,
        P::Msg: PartialEq + Hash + 'static,
    {
        let correct = scenario.faulty().complement(scenario.n);

        let mut sim_engine = scenario.to_sim::<RoundAdapter<P>>()?;
        sim_engine.drive_observed(scenario.max_units, sim_obs);
        let sim = outcome(&sim_engine, correct);

        let mut lockstep_engine = to_lockstep::<P>(scenario)?;
        lockstep_engine.drive_observed(scenario.rounds as u64, lockstep_obs);
        let lockstep = outcome(&lockstep_engine, correct);

        let lock_step = scenario
            .clone()
            .with_schedule(ScheduleFamily::LockStepRounds);
        let mut des_engine = lock_step.to_des::<RoundAdapter<P>>()?;
        des_engine.drive_observed(scenario.max_units, des_obs);
        let des = outcome(&des_engine, correct);

        let mut divergences = Vec::new();
        if sim.distinct != lockstep.distinct {
            divergences.push(Divergence::DistinctValues {
                sim: sim.distinct.clone(),
                lockstep: lockstep.distinct.clone(),
            });
        }
        for pid in correct {
            let (s, l) = (sim.decisions[pid.index()], lockstep.decisions[pid.index()]);
            if s != l {
                divergences.push(Divergence::Decision {
                    pid,
                    sim: s,
                    lockstep: l,
                });
            }
        }
        if sim.terminated != lockstep.terminated {
            divergences.push(Divergence::Termination {
                sim: sim.terminated,
                lockstep: lockstep.terminated,
            });
        }
        let (ka_sim, ka_lock) = (
            sim.k_agreement(scenario.k),
            lockstep.k_agreement(scenario.k),
        );
        if ka_sim != ka_lock {
            divergences.push(Divergence::KAgreement {
                k: scenario.k,
                sim: ka_sim,
                lockstep: ka_lock,
            });
        }

        // The same four checks for the discrete-event compilation against
        // the round-level reference.
        if des.distinct != lockstep.distinct {
            divergences.push(Divergence::DesDistinctValues {
                des: des.distinct.clone(),
                lockstep: lockstep.distinct.clone(),
            });
        }
        for pid in correct {
            let (d, l) = (des.decisions[pid.index()], lockstep.decisions[pid.index()]);
            if d != l {
                divergences.push(Divergence::DesDecision {
                    pid,
                    des: d,
                    lockstep: l,
                });
            }
        }
        if des.terminated != lockstep.terminated {
            divergences.push(Divergence::DesTermination {
                des: des.terminated,
                lockstep: lockstep.terminated,
            });
        }
        let ka_des = des.k_agreement(scenario.k);
        if ka_des != ka_lock {
            divergences.push(Divergence::DesKAgreement {
                k: scenario.k,
                des: ka_des,
                lockstep: ka_lock,
            });
        }

        Ok(DiffReport {
            n: scenario.n,
            f: scenario.f,
            k: scenario.k,
            lock_step_family: scenario.is_lock_step(),
            sim,
            lockstep,
            des,
            divergences,
        })
    }

    fn outcome<E: Engine<Output = Val>>(
        engine: &E,
        correct: kset_sim::ProcessSet,
    ) -> SubstrateOutcome {
        let decisions = engine.decisions();
        let distinct = engine.distinct_decisions();
        let terminated = correct.iter().all(|p| decisions[p.index()].is_some());
        SubstrateOutcome {
            decisions,
            distinct,
            terminated,
            units: engine.units(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::floodmin::FloodMin;
    use kset_sim::{Engine, ProcessId, ScenarioCrash, ScheduleFamily};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn round_crashes_cover_initially_dead_and_scheduled() {
        let sc = Scenario::favourable(5, 2, 1)
            .with_initially_dead(pid(4))
            .with_crash(ScenarioCrash {
                pid: pid(0),
                round: 2,
                receivers: [pid(1)].into(),
            });
        let crashes = round_crashes(&sc);
        assert_eq!(crashes.len(), 2);
        assert_eq!((crashes[0].pid, crashes[0].round), (pid(4), 1));
        assert!(crashes[0].receivers.is_empty());
        assert_eq!((crashes[1].pid, crashes[1].round), (pid(0), 2));
        assert_eq!(crashes[1].receivers, [pid(1)].into());
    }

    #[test]
    fn lockstep_compilation_runs_floodmin() {
        let sc = Scenario::favourable(4, 1, 1).with_crash(ScenarioCrash {
            pid: pid(0),
            round: 1,
            receivers: [pid(1)].into(),
        });
        let mut engine = to_lockstep::<FloodMin>(&sc).expect("valid scenario");
        engine.drive(sc.rounds as u64);
        let out = engine.outcome();
        assert_eq!(out.rounds, sc.rounds);
        assert!(out.distinct_decisions().len() <= sc.k);
        assert_eq!(out.crashed, [pid(0)].into());
    }

    #[test]
    fn adapter_equals_lockstep_on_a_crashy_scenario() {
        // The core equivalence, white-box: same scenario, both substrates,
        // identical per-process decisions.
        let sc = Scenario::favourable(5, 3, 1)
            .with_initially_dead(pid(4))
            .with_crash(ScenarioCrash {
                pid: pid(0),
                round: 1,
                receivers: [pid(1)].into(),
            })
            .with_crash(ScenarioCrash {
                pid: pid(1),
                round: 2,
                receivers: [pid(2)].into(),
            });
        let report = differential::check::<FloodMin>(&sc).expect("valid scenario");
        assert!(
            report.agrees(),
            "lock-step family must agree: {:?}",
            report.divergences
        );
        assert!(report.sim.terminated && report.lockstep.terminated);
        assert_eq!(report.sim.decisions, report.lockstep.decisions);
        assert!(report.sim.k_agreement(sc.k));
    }

    #[test]
    fn timed_engine_is_done_under_a_planned_crash() {
        // p0 crashes in round 1 to nobody. The timed engine must count the
        // crash plan's victim out of `done`, as the step substrate does,
        // instead of running until its heap drains.
        use kset_sim::des::{DesEngine, Latency};
        use kset_sim::StopReason;

        let sc = Scenario::favourable(4, 1, 1).with_crash(ScenarioCrash {
            pid: pid(0),
            round: 1,
            receivers: ProcessSet::new(),
        });
        let sim = sc
            .to_simulation::<RoundAdapter<FloodMin>>()
            .expect("valid scenario");
        let mut engine = DesEngine::timed(sim, Latency::fixed(1), 0, 0);
        let status = engine.drive(sc.max_units);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        assert_eq!(status.steps, 10, "4 first steps, then 3 per round");
        assert!(engine.done());
        let decisions = engine.decisions();
        assert_eq!(decisions[0], None);
        assert!(decisions[1..].iter().all(Option::is_some));
    }

    #[test]
    fn adapter_next_round_tracks_steps() {
        let sc = Scenario::favourable(3, 1, 1);
        let mut engine = sc
            .to_sim::<RoundAdapter<FloodMin>>()
            .expect("valid scenario");
        // Before any step, every adapter is about to send round 1.
        assert_eq!(
            engine.simulation().state(pid(0)).next_round(),
            Some(1),
            "rounds are 1-based"
        );
        engine.drive(sc.max_units);
        assert!(engine.done(), "favourable scenarios terminate");
        assert_eq!(engine.simulation().state(pid(0)).next_round(), None);
        assert!(engine
            .simulation()
            .state(pid(0))
            .inner()
            .decision()
            .is_some());
    }

    #[test]
    fn async_family_reports_divergence_not_panic() {
        // Under an asynchronous schedule the adapter consumes incomplete
        // round inboxes; the report must carry the disagreement.
        let sc = Scenario::favourable(5, 3, 1)
            .with_crash(ScenarioCrash {
                pid: pid(0),
                round: 1,
                receivers: [pid(1)].into(),
            })
            .with_crash(ScenarioCrash {
                pid: pid(1),
                round: 2,
                receivers: [pid(2)].into(),
            })
            .with_crash(ScenarioCrash {
                pid: pid(2),
                round: 3,
                receivers: [pid(3)].into(),
            })
            .with_schedule(ScheduleFamily::Async {
                seed: 11,
                deliver_percent: 25,
                fairness_window: 4,
            });
        let report = differential::check::<FloodMin>(&sc).expect("divergence is not an error");
        assert!(!report.lock_step_family);
        // The lock-step side still satisfies consensus; whatever the async
        // side did, the report reflects it without panicking.
        assert!(report.lockstep.k_agreement(1));
        assert!(report.lockstep.terminated);
    }
}
