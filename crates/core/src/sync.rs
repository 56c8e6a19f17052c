//! Lock-step synchronous rounds: the fully favourable DDS model point.
//!
//! The paper's impossibility (Theorem 2 / Corollary 5) lives at model points
//! with *asynchronous communication*. To exhibit the border it helps to also
//! implement the fully favourable point — synchronous processes **and**
//! synchronous communication — where classic round-based algorithms such as
//! FloodMin solve k-set agreement for any number of crash failures. This
//! module provides that substrate: a lock-step round executor with
//! mid-round crash injection (a crashing process delivers its round message
//! to an adversary-chosen subset of receivers, the synchronous analogue of
//! final-step send omission).
//!
//! The executor is the workspace's second [`Engine`] substrate: [`LockStep`]
//! wraps the round state machine and advances one *round* per engine unit,
//! so runners and benches can drive it through the same API as the
//! step-level simulator. [`run_sync`] is the traditional one-shot form, now
//! a thin wrapper over `LockStep`.

use std::fmt;

use kset_sim::observe::{
    CrashEvent, DecideEvent, DeliverEvent, NoObserver, Observer, RoundEvent, SendEvent,
};
use kset_sim::{CapacityError, Engine, ProcessId, ProcessSet, SenderMap, Time};

use crate::task::Val;

/// A per-round state machine for the synchronous executor.
pub trait RoundProcess: Clone + fmt::Debug {
    /// The round-message type.
    type Msg: Clone + fmt::Debug;

    /// The message this process broadcasts in round `r` (rounds are
    /// 1-based).
    fn message(&self, round: usize) -> Self::Msg;

    /// Receives the round-`r` messages (by sender; absent senders crashed
    /// or omitted) and updates the state.
    fn receive(&mut self, round: usize, msgs: &SenderMap<Self::Msg>);

    /// The decision, if the process has decided.
    fn decision(&self) -> Option<Val>;
}

/// A crash scheduled in the synchronous executor: in round `round`, process
/// `pid` sends its round message only to `receivers` and then crashes.
#[derive(Debug, Clone)]
pub struct RoundCrash {
    /// The round in which the crash occurs (1-based).
    pub round: usize,
    /// The crashing process.
    pub pid: ProcessId,
    /// The receivers that still get the final round message.
    pub receivers: ProcessSet,
}

impl RoundCrash {
    /// The round-level reading of a scenario crash — field-for-field the
    /// same description; the step-level reading is
    /// [`kset_sim::Scenario::crash_plan`]'s final-step send omission.
    pub fn from_scenario_crash(crash: &kset_sim::ScenarioCrash) -> Self {
        RoundCrash {
            round: crash.round,
            pid: crash.pid,
            receivers: crash.receivers,
        }
    }
}

/// Outcome of a synchronous execution.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Per-process decisions.
    pub decisions: Vec<Option<Val>>,
    /// Which processes crashed during the execution.
    pub crashed: ProcessSet,
    /// Rounds executed.
    pub rounds: usize,
}

impl SyncOutcome {
    /// The set of distinct decision values.
    pub fn distinct_decisions(&self) -> std::collections::BTreeSet<Val> {
        self.decisions.iter().flatten().copied().collect()
    }

    /// The **number** of distinct decision values, without allocating:
    /// equal to `self.distinct_decisions().len()`, but accumulated in a
    /// small sorted stack buffer instead of a heap `BTreeSet` — sweeps
    /// call this once per cell, and k-set outcomes rarely exceed a
    /// handful of values. Beyond 32 distinct values the tally spills to
    /// one sorted `Vec`.
    pub fn distinct_count(&self) -> usize {
        const STACK: usize = 32;
        let mut buf = [0 as Val; STACK];
        let mut len = 0usize;
        let mut iter = self.decisions.iter().flatten().copied();
        while let Some(v) = iter.next() {
            match buf[..len].binary_search(&v) {
                Ok(_) => {}
                Err(_) if len == STACK => {
                    // Spill: more distinct values than the stack buffer
                    // holds; finish with one sort + dedup pass.
                    let mut all: Vec<Val> = buf.to_vec();
                    all.push(v);
                    all.extend(iter);
                    all.sort_unstable();
                    all.dedup();
                    return all.len();
                }
                Err(pos) => {
                    buf.copy_within(pos..len, pos + 1);
                    buf[pos] = v;
                    len += 1;
                }
            }
        }
        len
    }
}

/// The lock-step round executor as an [`Engine`]: one engine unit executes
/// one full synchronous round.
///
/// # Examples
///
/// ```
/// use kset_core::sync::{LockStep, RoundProcess};
/// use kset_core::Val;
/// use kset_sim::{Engine, SenderMap};
///
/// #[derive(Debug, Clone)]
/// struct Echo(Option<usize>);
///
/// impl RoundProcess for Echo {
///     type Msg = ();
///     fn message(&self, _round: usize) {}
///     fn receive(&mut self, _round: usize, msgs: &SenderMap<()>) {
///         self.0 = Some(msgs.len());
///     }
///     fn decision(&self) -> Option<Val> {
///         self.0.map(|h| h as Val)
///     }
/// }
///
/// let mut engine = LockStep::new(vec![Echo(None); 3], 1, &[]);
/// engine.drive(u64::MAX);
/// assert_eq!(engine.outcome().decisions, vec![Some(3); 3]);
/// ```
#[derive(Debug, Clone)]
pub struct LockStep<P: RoundProcess> {
    procs: Vec<P>,
    crashes: Vec<RoundCrash>,
    crashed: ProcessSet,
    /// Rounds fully executed so far.
    round: usize,
    /// Total rounds scheduled.
    max_rounds: usize,
}

impl<P: RoundProcess> LockStep<P> {
    /// Creates an executor running `rounds` lock-step rounds of `procs`,
    /// applying the scheduled crashes.
    ///
    /// # Panics
    ///
    /// Panics if two crashes name the same process, or if `procs.len()`
    /// exceeds [`ProcessSet::CAPACITY`]; [`LockStep::try_new`] is the
    /// fallible form of the capacity check.
    pub fn new(procs: Vec<P>, rounds: usize, crashes: &[RoundCrash]) -> Self {
        match Self::try_new(procs, rounds, crashes) {
            Ok(ls) => ls,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_new
            Err(e) => panic!("system size {e}"),
        }
    }

    /// Creates the executor, or a [`CapacityError`] if `procs.len()`
    /// exceeds [`ProcessSet::CAPACITY`].
    ///
    /// # Panics
    ///
    /// Still panics if two crashes name the same process — that is a
    /// malformed schedule, not a size limit.
    pub fn try_new(
        procs: Vec<P>,
        rounds: usize,
        crashes: &[RoundCrash],
    ) -> Result<Self, CapacityError> {
        if procs.len() > ProcessSet::CAPACITY {
            return Err(CapacityError::new(procs.len(), ProcessSet::CAPACITY));
        }
        let mut seen = ProcessSet::new();
        for c in crashes {
            assert!(seen.insert(c.pid), "duplicate crash for {}", c.pid);
        }
        Ok(LockStep {
            procs,
            crashes: crashes.to_vec(),
            crashed: ProcessSet::new(),
            round: 0,
            max_rounds: rounds,
        })
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The processes that have crashed so far.
    pub fn crashed(&self) -> ProcessSet {
        self.crashed
    }

    /// The execution outcome at the current point.
    pub fn outcome(&self) -> SyncOutcome {
        SyncOutcome {
            decisions: self.procs.iter().map(RoundProcess::decision).collect(),
            crashed: self.crashed,
            rounds: self.round,
        }
    }

    /// Executes one full round (send phase, then receive phase).
    fn execute_round(&mut self) {
        self.execute_round_observed(&mut NoObserver);
    }

    /// Executes one full round, reporting the round's typed events to
    /// `obs` — per the round-substrate contract of [`kset_sim::observe`]:
    /// one [`SendEvent`] per `(sender, receiver)` pair of the send phase
    /// (a crashing sender's omitted deliveries appear as `dropped` sends,
    /// so *transmitted* counts agree with the step substrate), a
    /// [`CrashEvent`] per mid-round crash, then per alive receiver one
    /// [`DeliverEvent`] per consumed inbox entry and a [`DecideEvent`]
    /// when the receive phase first produced a decision, closed by one
    /// [`RoundEvent`].
    ///
    /// The round substrate tracks no message ids and does not fingerprint
    /// payloads (round messages need not be hashable), so the id and
    /// fingerprint fields of its send/deliver events are `None`. `time` on
    /// every event is the 1-based round number.
    ///
    /// The unobserved [`LockStep::advance`] is this method with a
    /// [`NoObserver`], monomorphized away.
    fn execute_round_observed<Ob>(&mut self, obs: &mut Ob)
    where
        Ob: Observer<Val> + ?Sized,
    {
        let n = self.procs.len();
        let round = self.round + 1;
        let time = Time::new(round as u64);
        // Send phase: every alive process emits its round message; crashing
        // processes deliver to their chosen subset only.
        let mut inboxes: Vec<SenderMap<P::Msg>> =
            (0..n).map(|_| SenderMap::with_capacity(n)).collect();
        for (i, p) in self.procs.iter().enumerate() {
            let pid = ProcessId::new(i);
            if self.crashed.contains(pid) {
                continue;
            }
            let msg = p.message(round);
            let crash_now = self
                .crashes
                .iter()
                .find(|c| c.pid == pid && c.round == round);
            for dst in ProcessId::all(n) {
                let delivered = match crash_now {
                    Some(c) => c.receivers.contains(dst),
                    None => true,
                };
                if delivered {
                    inboxes[dst.index()].insert(pid, msg.clone());
                }
                obs.on_send(&SendEvent {
                    time,
                    src: pid,
                    dst,
                    id: None,
                    payload_fp: None,
                    dropped: !delivered,
                });
            }
            if crash_now.is_some() {
                self.crashed.insert(pid);
                obs.on_crash(&CrashEvent {
                    time,
                    pid,
                    after_step: true,
                });
            }
        }
        // Receive phase: every alive process consumes its round inbox.
        let mut delivered_total = 0usize;
        for (i, p) in self.procs.iter_mut().enumerate() {
            let pid = ProcessId::new(i);
            if self.crashed.contains(pid) {
                continue;
            }
            let inbox = &inboxes[i];
            let had_decided = p.decision().is_some();
            p.receive(round, inbox);
            delivered_total += inbox.len();
            for (src, _) in inbox.iter() {
                obs.on_deliver(&DeliverEvent {
                    time,
                    src,
                    dst: pid,
                    id: None,
                    payload_fp: None,
                });
            }
            if !had_decided {
                if let Some(value) = p.decision() {
                    obs.on_decide(&DecideEvent { time, pid, value });
                }
            }
        }
        self.round = round;
        obs.on_round(&RoundEvent {
            round,
            alive: n - self.crashed.len(),
            delivered: delivered_total,
        });
    }
}

impl<P: RoundProcess> Engine for LockStep<P> {
    type Output = Val;

    fn n(&self) -> usize {
        self.procs.len()
    }

    fn advance(&mut self) -> bool {
        if self.round >= self.max_rounds {
            return false;
        }
        self.execute_round();
        true
    }

    fn advance_observed(&mut self, obs: &mut dyn Observer<Val>) -> bool {
        if self.round >= self.max_rounds {
            return false;
        }
        if obs.observes_events() {
            self.execute_round_observed(obs);
        } else {
            // One virtual check instead of one virtual call per event:
            // the monomorphized no-op path keeps observed-but-no-op
            // drives at parity with plain `drive`.
            self.execute_round();
        }
        true
    }

    /// The lock-step goal: every scheduled round executed **and** every
    /// non-crashed process decided. Requiring the full round count
    /// preserves the executor's contract of running exactly the scheduled
    /// rounds (round-based algorithms decide at their final round);
    /// requiring decisions keeps [`kset_sim::StopReason::AllCorrectDecided`]
    /// truthful — a round budget too small for the algorithm surfaces as
    /// `StepLimit`/`SchedulerDone`, not as success.
    fn done(&self) -> bool {
        self.round >= self.max_rounds
            && self
                .procs
                .iter()
                .enumerate()
                .all(|(i, p)| self.crashed.contains(ProcessId::new(i)) || p.decision().is_some())
    }

    fn units(&self) -> u64 {
        self.round as u64
    }

    fn decisions(&self) -> Vec<Option<Val>> {
        self.procs.iter().map(RoundProcess::decision).collect()
    }
}

/// Runs `rounds` lock-step rounds of processes initialized by `init`,
/// applying the scheduled crashes — [`LockStep`] driven to completion
/// through the [`Engine`] interface.
///
/// # Panics
///
/// Panics if two crashes name the same process.
pub fn run_sync<P: RoundProcess>(
    procs: Vec<P>,
    rounds: usize,
    crashes: &[RoundCrash],
) -> SyncOutcome {
    // kset-lint: allow(unchecked-capacity): run_sync is itself the documented panicking convenience entry point; capacity-aware callers go through LockStep::try_new directly
    let mut engine = LockStep::new(procs, rounds, crashes);
    engine.drive(rounds as u64);
    engine.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_sim::StopReason;

    /// Trivial echo: decides the number of senders heard in round 1.
    #[derive(Debug, Clone)]
    struct CountRound1 {
        heard: Option<usize>,
    }

    impl RoundProcess for CountRound1 {
        type Msg = ();

        fn message(&self, _round: usize) {}

        fn receive(&mut self, round: usize, msgs: &SenderMap<()>) {
            if round == 1 {
                self.heard = Some(msgs.len());
            }
        }

        fn decision(&self) -> Option<Val> {
            self.heard.map(|h| h as Val)
        }
    }

    #[test]
    fn all_alive_hear_everyone() {
        let procs = vec![CountRound1 { heard: None }; 3];
        let out = run_sync(procs, 1, &[]);
        assert_eq!(out.decisions, vec![Some(3), Some(3), Some(3)]);
        assert!(out.crashed.is_empty());
    }

    #[test]
    fn mid_round_crash_partitions_receivers() {
        // p1 crashes in round 1, reaching only p2.
        let procs = vec![CountRound1 { heard: None }; 3];
        let crash = RoundCrash {
            round: 1,
            pid: ProcessId::new(0),
            receivers: [ProcessId::new(1)].into(),
        };
        let out = run_sync(procs, 1, &[crash]);
        assert_eq!(out.decisions[1], Some(3), "p2 heard everyone incl. crasher");
        assert_eq!(out.decisions[2], Some(2), "p3 missed the crasher");
        assert_eq!(out.decisions[0], None, "crashed processes do not receive");
        assert_eq!(out.crashed, [ProcessId::new(0)].into());
    }

    #[test]
    fn crashed_process_sends_nothing_later() {
        let procs = vec![CountRound1 { heard: None }; 2];
        let crash = RoundCrash {
            round: 1,
            pid: ProcessId::new(0),
            receivers: ProcessSet::new(),
        };
        let out = run_sync(procs, 2, &[crash]);
        assert_eq!(out.decisions[1], Some(1), "only its own message in round 1");
    }

    #[test]
    #[should_panic(expected = "exceeds the ProcessSet capacity")]
    fn oversized_system_rejected_at_construction() {
        let procs = vec![CountRound1 { heard: None }; ProcessSet::CAPACITY + 1];
        let _ = LockStep::new(procs, 1, &[]);
    }

    #[test]
    fn oversized_system_is_a_typed_error_on_try_new() {
        let procs = vec![CountRound1 { heard: None }; ProcessSet::CAPACITY + 1];
        let err = LockStep::try_new(procs, 1, &[]).unwrap_err();
        assert_eq!(err.requested(), ProcessSet::CAPACITY + 1);
        assert_eq!(err.capacity(), ProcessSet::CAPACITY);
        let procs = vec![CountRound1 { heard: None }; ProcessSet::CAPACITY];
        assert!(LockStep::try_new(procs, 1, &[]).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate crash")]
    fn duplicate_crash_rejected() {
        let procs = vec![CountRound1 { heard: None }; 2];
        let c = |round| RoundCrash {
            round,
            pid: ProcessId::new(0),
            receivers: ProcessSet::new(),
        };
        let _ = run_sync(procs, 2, &[c(1), c(2)]);
    }

    #[test]
    fn lockstep_engine_round_granularity() {
        let procs = vec![CountRound1 { heard: None }; 3];
        let mut engine = LockStep::new(procs, 2, &[]);
        assert_eq!(Engine::n(&engine), 3);
        assert!(!engine.done());
        assert!(engine.advance());
        assert_eq!(engine.round(), 1);
        assert_eq!(engine.units(), 1);
        assert!(engine.decisions().iter().all(Option::is_some));
        let status = engine.drive(10);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        assert!(engine.done());
        assert!(!engine.advance(), "no rounds beyond the schedule");
        let out = engine.outcome();
        assert_eq!(out.rounds, 2);
        assert_eq!(engine.distinct_decisions().len(), 1);
    }

    #[test]
    fn undecided_rounds_do_not_report_success() {
        /// Never decides, whatever it hears.
        #[derive(Debug, Clone)]
        struct NeverDecides;
        impl RoundProcess for NeverDecides {
            type Msg = ();
            fn message(&self, _round: usize) {}
            fn receive(&mut self, _round: usize, _msgs: &SenderMap<()>) {}
            fn decision(&self) -> Option<Val> {
                None
            }
        }
        let mut engine = LockStep::new(vec![NeverDecides; 3], 2, &[]);
        let status = engine.drive(u64::MAX);
        assert_eq!(
            status.stop,
            StopReason::SchedulerDone,
            "exhausting the rounds without decisions must not read as success"
        );
        assert!(!engine.done());
        assert!(engine.decisions().iter().all(Option::is_none));
        assert_eq!(engine.outcome().rounds, 2, "the scheduled rounds still ran");
    }

    #[test]
    fn observed_rounds_emit_typed_events() {
        use kset_sim::observe::EventCounter;

        // 3 processes, 2 rounds; p1 crashes in round 1 reaching only p2.
        let crash = RoundCrash {
            round: 1,
            pid: ProcessId::new(0),
            receivers: [ProcessId::new(1)].into(),
        };
        let mut engine = LockStep::new(vec![CountRound1 { heard: None }; 3], 2, &[crash]);
        let mut counter: EventCounter<Val> = EventCounter::new();
        let status = engine.drive_observed(u64::MAX, &mut counter);
        let counts = counter.counts();
        // Round 1: three senders × three destinations; round 2: two alive
        // senders × three destinations.
        assert_eq!(counts.sends, 9 + 6);
        // The crasher reached only its one chosen receiver: the other two
        // of its three round-1 sends are dropped.
        assert_eq!(counts.dropped, 2);
        assert_eq!(counts.transmitted(), 13);
        // Alive receivers consumed: round 1 → p2 heard 3, p3 heard 2;
        // round 2 → p2 and p3 heard 2 each.
        assert_eq!(counts.delivers, 3 + 2 + 2 + 2);
        assert_eq!(counts.rounds, 2);
        assert_eq!(counts.crashes, 1);
        assert_eq!(counts.decides, 2, "both survivors decide in round 1");
        assert_eq!(counts.halts, 1);
        assert_eq!(counts.steps, 0, "the round substrate emits no step events");
        let decided = counter.decisions_by_process();
        assert_eq!(decided.get(&ProcessId::new(1)), Some(&3));
        assert_eq!(decided.get(&ProcessId::new(2)), Some(&2));
        // The observed drive leaves the outcome identical to a plain one.
        let plain = run_sync(
            vec![CountRound1 { heard: None }; 3],
            2,
            &[RoundCrash {
                round: 1,
                pid: ProcessId::new(0),
                receivers: [ProcessId::new(1)].into(),
            }],
        );
        assert_eq!(engine.outcome().decisions, plain.decisions);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
    }

    #[test]
    fn trace_recorder_on_round_substrate_keeps_crash_history_only() {
        // A Trace is a step-substrate notion: attached to the round
        // executor, the recorder keeps the crash history and discards
        // each round's staged message records (bounded memory, no
        // half-assembled step records).
        use kset_sim::{Time, TraceRecorder};

        let crash = RoundCrash {
            round: 2,
            pid: ProcessId::new(1),
            receivers: ProcessSet::new(),
        };
        let mut engine = LockStep::new(vec![CountRound1 { heard: None }; 3], 3, &[crash]);
        let mut recorder: TraceRecorder<Val> = TraceRecorder::new(3);
        engine.drive_observed(u64::MAX, &mut recorder);
        let trace = recorder.into_trace();
        assert_eq!(trace.step_count(), 0, "no step records from rounds");
        let fp = trace.failure_pattern();
        assert_eq!(fp.faulty(), [ProcessId::new(1)].into());
        assert_eq!(fp.crash_time(ProcessId::new(1)), Some(Time::new(2)));
        assert_eq!(trace.events().len(), 1, "exactly the crash history");
    }

    #[test]
    fn distinct_count_agrees_with_distinct_decisions() {
        let out = SyncOutcome {
            decisions: vec![Some(3), None, Some(1), Some(3), Some(7), None, Some(1)],
            crashed: ProcessSet::new(),
            rounds: 1,
        };
        assert_eq!(out.distinct_count(), out.distinct_decisions().len());
        assert_eq!(out.distinct_count(), 3);
        // Spill path: more distinct values than the stack buffer holds.
        let wide = SyncOutcome {
            decisions: (0..100).map(|v| Some(v as Val)).collect(),
            crashed: ProcessSet::new(),
            rounds: 1,
        };
        assert_eq!(wide.distinct_count(), 100);
        let empty = SyncOutcome {
            decisions: vec![None; 4],
            crashed: ProcessSet::new(),
            rounds: 1,
        };
        assert_eq!(empty.distinct_count(), 0);
    }

    #[test]
    fn lockstep_engine_matches_run_sync() {
        let crash = RoundCrash {
            round: 1,
            pid: ProcessId::new(2),
            receivers: [ProcessId::new(0)].into(),
        };
        let direct = run_sync(
            vec![CountRound1 { heard: None }; 4],
            3,
            std::slice::from_ref(&crash),
        );
        let mut engine = LockStep::new(vec![CountRound1 { heard: None }; 4], 3, &[crash]);
        engine.drive(u64::MAX);
        let driven = engine.outcome();
        assert_eq!(direct.decisions, driven.decisions);
        assert_eq!(direct.crashed, driven.crashed);
        assert_eq!(direct.rounds, driven.rounds);
    }
}
