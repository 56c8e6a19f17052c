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
    BroadcastEvent, CrashEvent, DecideEvent, InboxEvent, Observer, RoundEvent,
};
use kset_sim::{CapacityError, Engine, ProcessId, ProcessSet, SenderMap, Time};

use crate::task::Val;

/// A per-round state machine for the synchronous executor.
///
/// A round's receive is split in two: [`hear`](RoundProcess::hear) folds
/// an inbox into what the algorithm keeps of it, and
/// [`receive`](RoundProcess::receive) applies that fold to one process.
/// `hear` takes no `self`, so a fold cannot depend on who receives it:
/// [`LockStep`] folds each distinct inbox of a round once and hands the
/// same fold to every receiver of that inbox.
pub trait RoundProcess: Clone + fmt::Debug {
    /// The round-message type.
    type Msg: Clone + fmt::Debug;

    /// What a process keeps of one round inbox.
    type Heard;

    /// The message this process broadcasts in round `r` (rounds are
    /// 1-based).
    fn message(&self, round: usize) -> Self::Msg;

    /// Folds the round-`r` messages (by sender; absent senders crashed or
    /// omitted) into what a receiver keeps of them.
    fn hear(round: usize, msgs: &SenderMap<Self::Msg>) -> Self::Heard;

    /// Receives the fold of a round-`r` inbox and updates the state.
    fn receive(&mut self, round: usize, heard: &Self::Heard);

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
/// Round messages are broadcasts, stored once per round; the executor
/// folds each distinct inbox of a round once ([`RoundProcess::hear`]) and
/// hands that fold to every receiver of it.
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
///     type Heard = usize;
///     fn message(&self, _round: usize) {}
///     fn hear(_round: usize, msgs: &SenderMap<()>) -> usize {
///         msgs.len()
///     }
///     fn receive(&mut self, _round: usize, heard: &usize) {
///         self.0 = Some(*heard);
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

    /// Executes one full round (send phase, then receive phase), reporting
    /// the round's typed events to `obs` — per the round-substrate
    /// contract of [`kset_sim::observe`]: one [`BroadcastEvent`] for the
    /// alive senders that reached everyone, then per mid-round crasher,
    /// ascending, its own [`BroadcastEvent`] (its `reached` is its
    /// receivers within `0..n`, so the omitted deliveries expand to
    /// `dropped` sends and *transmitted* counts agree with the step
    /// substrate) and its [`CrashEvent`]; then per inbox class, in order
    /// of smallest receiver, one [`InboxEvent`] and a [`DecideEvent`] per
    /// receiver of the class, ascending, whose receive first produced a
    /// decision; closed by one [`RoundEvent`].
    ///
    /// Every round message is a broadcast, so each is stored once, in one
    /// shared round map. The alive receivers start as one inbox class, and
    /// each crasher splits every class into the receivers it reached and
    /// those it missed, so two receivers share a class exactly when the
    /// same crashers missed them. The class that no crasher missed gets
    /// the fold ([`RoundProcess::hear`]) of the shared map; any other gets
    /// the fold of a copy without the crashers that missed it. Each class's
    /// inbox is folded once and its fold handed to all its receivers, so
    /// `c` crashers cost O(c × classes) `ProcessSet` operations, one fold
    /// per class — at most `min(n, 2^c)` of them — and O(n) receives.
    ///
    /// The round substrate tracks no message ids and does not fingerprint
    /// payloads (round messages need not be hashable), so the id and
    /// fingerprint fields of the expanded send/deliver events are `None`.
    /// `time` on every event is the 1-based round number.
    ///
    /// The unobserved [`Engine::advance`] runs this with a
    /// [`NoObserver`](kset_sim::NoObserver), whose callbacks compile away.
    fn execute_round_observed<Ob>(&mut self, obs: &mut Ob)
    where
        Ob: Observer<Val> + ?Sized,
    {
        let n = self.procs.len();
        let round = self.round + 1;
        let time = Time::new(round as u64);
        // kset-lint: allow(unchecked-capacity): try_new already rejected n > ProcessSet::CAPACITY
        let everyone = ProcessSet::full(n);
        let alive = everyone - self.crashed;
        // The round's crashers, ascending, each with its reach in 0..n.
        let mut crashers: Vec<(ProcessId, ProcessSet)> = self
            .crashes
            .iter()
            .filter(|c| c.round == round && alive.contains(c.pid))
            .map(|c| (c.pid, c.receivers & everyone))
            .collect();
        crashers.sort_unstable_by_key(|&(pid, _)| pid);
        // Send phase: every alive process broadcasts its round message into
        // the shared map; crashing processes reach their chosen subset only.
        let mut shared = SenderMap::with_capacity(n);
        for src in alive {
            shared.insert(src, self.procs[src.index()].message(round));
        }
        let crashing: ProcessSet = crashers.iter().map(|&(pid, _)| pid).collect();
        let reaching_all = alive - crashing;
        if !reaching_all.is_empty() {
            obs.on_broadcast(&BroadcastEvent {
                time,
                senders: reaching_all,
                n,
                reached: everyone,
            });
        }
        for &(pid, reached) in &crashers {
            self.crashed.insert(pid);
            obs.on_broadcast(&BroadcastEvent {
                time,
                senders: ProcessSet::from([pid]),
                n,
                reached,
            });
            obs.on_crash(&CrashEvent {
                time,
                pid,
                after_step: true,
            });
        }
        // Receive phase: split the alive receivers into inbox classes of
        // `(receivers, crashers that missed them)`.
        let mut classes: Vec<(ProcessSet, ProcessSet)> = Vec::new();
        if !reaching_all.is_empty() {
            classes.push((reaching_all, ProcessSet::new()));
        }
        for &(pid, reached) in &crashers {
            for i in 0..classes.len() {
                let (receivers, mut missed) = classes[i];
                let unreached = receivers - reached;
                if unreached.is_empty() {
                    continue;
                }
                missed.insert(pid);
                if unreached == receivers {
                    classes[i].1 = missed;
                } else {
                    classes[i].0 = receivers & reached;
                    classes.push((unreached, missed));
                }
            }
        }
        classes.sort_unstable_by_key(|&(receivers, _)| receivers.first());
        // Each class folds its inbox once and hands the fold to every one
        // of its receivers.
        let mut delivered_total = 0usize;
        for (receivers, missed) in classes {
            let (heard, delivered) = if missed.is_empty() {
                (P::hear(round, &shared), shared.len())
            } else {
                let mut inbox = shared.clone();
                for pid in missed {
                    inbox.remove(pid);
                }
                (P::hear(round, &inbox), inbox.len())
            };
            delivered_total += receivers.len() * delivered;
            obs.on_inbox(&InboxEvent {
                time,
                receivers,
                senders: alive - missed,
            });
            for dst in receivers {
                let p = &mut self.procs[dst.index()];
                let had_decided = p.decision().is_some();
                p.receive(round, &heard);
                if !had_decided {
                    if let Some(value) = p.decision() {
                        obs.on_decide(&DecideEvent {
                            time,
                            pid: dst,
                            value,
                        });
                    }
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

    fn advance_observed<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<Val> + ?Sized,
    {
        if self.round >= self.max_rounds {
            return false;
        }
        self.execute_round_observed(obs);
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
    use kset_sim::observe::{DeliverEvent, EventCounts, HaltEvent, SendEvent};
    use kset_sim::StopReason;
    use std::collections::BTreeMap;

    /// Trivial echo: decides the number of senders heard in round 1.
    #[derive(Debug, Clone)]
    struct CountRound1 {
        heard: Option<usize>,
    }

    impl RoundProcess for CountRound1 {
        type Msg = ();
        type Heard = usize;

        fn message(&self, _round: usize) {}

        fn hear(_round: usize, msgs: &SenderMap<()>) -> usize {
            msgs.len()
        }

        fn receive(&mut self, round: usize, heard: &usize) {
            if round == 1 {
                self.heard = Some(*heard);
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
            type Heard = ();
            fn message(&self, _round: usize) {}
            fn hear(_round: usize, _msgs: &SenderMap<()>) {}
            fn receive(&mut self, _round: usize, _heard: &()) {}
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

    /// One observed event, as the per-pair observer methods see it.
    #[derive(Debug, PartialEq, Eq)]
    enum Ev {
        /// `(src, dst, dropped)`.
        Send(usize, usize, bool),
        /// `(src, dst)`.
        Deliver(usize, usize),
        Crash(usize),
        /// `(pid, value)`.
        Decide(usize, Val),
        Round(usize),
        Halt,
    }

    /// Logs the per-pair stream: it overrides only the per-pair methods,
    /// so the round's bulk events reach it default-expanded.
    #[derive(Debug, Default)]
    struct PairLog(Vec<Ev>);

    impl Observer<Val> for PairLog {
        fn on_send(&mut self, e: &SendEvent) {
            self.0
                .push(Ev::Send(e.src.index(), e.dst.index(), e.dropped));
        }
        fn on_deliver(&mut self, e: &DeliverEvent) {
            self.0.push(Ev::Deliver(e.src.index(), e.dst.index()));
        }
        fn on_crash(&mut self, e: &CrashEvent) {
            self.0.push(Ev::Crash(e.pid.index()));
        }
        fn on_decide(&mut self, e: &DecideEvent<Val>) {
            self.0.push(Ev::Decide(e.pid.index(), e.value));
        }
        fn on_round(&mut self, e: &RoundEvent) {
            self.0.push(Ev::Round(e.round));
        }
        fn on_halt(&mut self, _e: &HaltEvent) {
            self.0.push(Ev::Halt);
        }
    }

    #[test]
    fn round_events_expand_to_the_pinned_per_pair_stream() {
        use Ev::*;

        // 4 processes, 2 rounds. p2 crashes in round 1 reaching p1 and
        // p4; p4 crashes in round 2 reaching only p3.
        let crashes = [
            RoundCrash {
                round: 1,
                pid: ProcessId::new(1),
                receivers: [ProcessId::new(0), ProcessId::new(3)].into(),
            },
            RoundCrash {
                round: 2,
                pid: ProcessId::new(3),
                receivers: [ProcessId::new(2)].into(),
            },
        ];
        let mut engine = LockStep::new(vec![CountRound1 { heard: None }; 4], 2, &crashes);
        let mut log = PairLog::default();
        engine.drive_observed(u64::MAX, &mut log);
        #[rustfmt::skip]
        let expected = vec![
            // Round 1, send phase: the senders that reached everyone,
            // ascending, each to destinations ascending; then the crasher's
            // sends and its crash.
            Send(0, 0, false), Send(0, 1, false), Send(0, 2, false), Send(0, 3, false),
            Send(2, 0, false), Send(2, 1, false), Send(2, 2, false), Send(2, 3, false),
            Send(3, 0, false), Send(3, 1, false), Send(3, 2, false), Send(3, 3, false),
            Send(1, 0, false), Send(1, 1, true), Send(1, 2, true), Send(1, 3, false),
            Crash(1),
            // Receive phase: the class {p1, p4} that heard everyone, then
            // the class {p3} that missed p2. Each class's receivers get
            // their inboxes ascending, then the class's first decisions.
            Deliver(0, 0), Deliver(1, 0), Deliver(2, 0), Deliver(3, 0),
            Deliver(0, 3), Deliver(1, 3), Deliver(2, 3), Deliver(3, 3),
            Decide(0, 4), Decide(3, 4),
            Deliver(0, 2), Deliver(2, 2), Deliver(3, 2),
            Decide(2, 3),
            Round(1),
            // Round 2: p2 is silent and p4 crashes reaching only p3. The
            // class {p1} that missed p4 comes first, by smallest receiver.
            Send(0, 0, false), Send(0, 1, false), Send(0, 2, false), Send(0, 3, false),
            Send(2, 0, false), Send(2, 1, false), Send(2, 2, false), Send(2, 3, false),
            Send(3, 0, true), Send(3, 1, true), Send(3, 2, false), Send(3, 3, true),
            Crash(3),
            Deliver(0, 0), Deliver(2, 0),
            Deliver(0, 2), Deliver(2, 2), Deliver(3, 2),
            Round(2),
            Halt,
        ];
        assert_eq!(log.0, expected);
    }

    /// An [`EventCounter`] reached only through the per-pair methods.
    #[derive(Debug, Default)]
    struct PerPairCounter(kset_sim::observe::EventCounter<Val>);

    impl Observer<Val> for PerPairCounter {
        fn on_send(&mut self, e: &SendEvent) {
            self.0.on_send(e);
        }
        fn on_deliver(&mut self, e: &DeliverEvent) {
            self.0.on_deliver(e);
        }
        fn on_crash(&mut self, e: &CrashEvent) {
            self.0.on_crash(e);
        }
        fn on_decide(&mut self, e: &DecideEvent<Val>) {
            self.0.on_decide(e);
        }
        fn on_round(&mut self, e: &RoundEvent) {
            self.0.on_round(e);
        }
        fn on_halt(&mut self, e: &HaltEvent) {
            self.0.on_halt(e);
        }
    }

    #[test]
    fn bulk_event_counts_equal_the_per_pair_expansion() {
        use crate::algorithms::floodmin::FloodMin;
        use kset_sim::observe::EventCounter;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(0xb0ad ^ seed);
            // Up to 130 processes crosses the 64-bit limbs of ProcessSet.
            let n = rng.gen_range(1..=130usize);
            let rounds = rng.gen_range(1..=3usize);
            let mut victims: Vec<usize> = (0..n).collect();
            victims.shuffle(&mut rng);
            // Receivers may name ids in n..n+8, which no broadcast reaches;
            // a crash round past the schedule never fires.
            let crashes: Vec<RoundCrash> = victims[..rng.gen_range(0..n.min(8))]
                .iter()
                .map(|&v| {
                    let density = f64::from(rng.gen_range(0..=4u32)) / 4.0;
                    RoundCrash {
                        round: rng.gen_range(1..=rounds + 1),
                        pid: ProcessId::new(v),
                        receivers: (0..n + 8)
                            .filter(|_| rng.gen_bool(density))
                            .map(ProcessId::new)
                            .collect(),
                    }
                })
                .collect();
            let procs: Vec<FloodMin> = (0..n)
                .map(|_| FloodMin::new(rng.gen_range(0..=1000u64) as Val, rounds))
                .collect();
            let mut bulk: EventCounter<Val> = EventCounter::new();
            let mut engine = LockStep::new(procs.clone(), rounds, &crashes);
            engine.drive_observed(u64::MAX, &mut bulk);
            let mut per_pair = PerPairCounter::default();
            let mut reference = LockStep::new(procs, rounds, &crashes);
            reference.drive_observed(u64::MAX, &mut per_pair);
            let tag = format!("seed {seed}: n={n} rounds={rounds} crashes={crashes:?}");
            assert_eq!(bulk.counts(), per_pair.0.counts(), "{tag}");
            assert_eq!(bulk.decisions(), per_pair.0.decisions(), "{tag}");
            assert_eq!(
                engine.outcome().decisions,
                reference.outcome().decisions,
                "{tag}"
            );
        }
    }

    thread_local! {
        /// Calls of [`SenderLog::hear`] on this thread.
        static FOLDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Keeps each round inbox's sender set; its fold counts its calls.
    #[derive(Debug, Clone, Default)]
    struct SenderLog(Vec<ProcessSet>);

    impl RoundProcess for SenderLog {
        type Msg = ();
        type Heard = ProcessSet;

        fn message(&self, _round: usize) {}

        fn hear(_round: usize, msgs: &SenderMap<()>) -> ProcessSet {
            FOLDS.with(|folds| folds.set(folds.get() + 1));
            msgs.senders()
        }

        fn receive(&mut self, _round: usize, heard: &ProcessSet) {
            self.0.push(*heard);
        }

        fn decision(&self) -> Option<Val> {
            None
        }
    }

    /// Per round: its crashes, its inbox events as `(receivers, senders)`
    /// and the folds made in it.
    #[derive(Debug)]
    struct FoldLog {
        crashes: Vec<u32>,
        inboxes: Vec<Vec<(ProcessSet, ProcessSet)>>,
        folds: Vec<usize>,
    }

    impl Observer<Val> for FoldLog {
        fn on_crash(&mut self, e: &CrashEvent) {
            self.crashes[e.time.raw() as usize - 1] += 1;
        }
        fn on_inbox(&mut self, e: &InboxEvent) {
            self.inboxes[e.time.raw() as usize - 1].push((e.receivers, e.senders));
        }
        fn on_round(&mut self, _e: &RoundEvent) {
            self.folds.push(FOLDS.with(|folds| folds.replace(0)));
        }
    }

    #[test]
    fn each_distinct_round_inbox_is_folded_once() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        // 70 processes: sender and receiver sets span two 64-bit limbs.
        let (n, rounds) = (70, 4);
        let mut rng = StdRng::seed_from_u64(0xf01d);
        let mut victims: Vec<usize> = (0..n).collect();
        victims.shuffle(&mut rng);
        // Rounds 1 and 4 crash nobody; round 2 has 3 crashers and round 3
        // has 9, each reaching its own random receivers.
        let crashes: Vec<RoundCrash> = victims[..12]
            .iter()
            .enumerate()
            .map(|(i, &v)| RoundCrash {
                round: if i < 3 { 2 } else { 3 },
                pid: ProcessId::new(v),
                receivers: (0..n)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(ProcessId::new)
                    .collect(),
            })
            .collect();
        FOLDS.with(|folds| folds.set(0));
        let mut engine = LockStep::new(vec![SenderLog::default(); n], rounds, &crashes);
        let mut log = FoldLog {
            crashes: vec![0; rounds],
            inboxes: vec![Vec::new(); rounds],
            folds: Vec::new(),
        };
        engine.drive_observed(u64::MAX, &mut log);
        assert_eq!(log.crashes, [0, 3, 9, 0]);
        assert_eq!(log.folds.len(), rounds);
        for (r, inboxes) in log.inboxes.iter().enumerate() {
            let round = r + 1;
            assert_eq!(
                log.folds[r],
                inboxes.len(),
                "round {round}: one inbox event per fold"
            );
            // The classes partition the round's alive receivers, in order
            // of smallest receiver, and no two heard the same senders.
            let alive: ProcessSet = ProcessId::all(n)
                .filter(|&p| !crashes.iter().any(|c| c.pid == p && c.round <= round))
                .collect();
            let mut covered = ProcessSet::new();
            for &(receivers, _) in inboxes {
                assert!(!receivers.is_empty(), "round {round}: empty class");
                assert!(
                    (covered & receivers).is_empty(),
                    "round {round}: overlapping classes"
                );
                covered |= receivers;
            }
            assert_eq!(covered, alive, "round {round}: classes cover the alive");
            assert!(
                inboxes.windows(2).all(|w| w[0].0.first() < w[1].0.first()),
                "round {round}: classes ordered by smallest receiver"
            );
            let distinct: std::collections::BTreeSet<ProcessSet> =
                inboxes.iter().map(|&(_, senders)| senders).collect();
            assert_eq!(distinct.len(), inboxes.len(), "round {round}");
            match log.crashes[r] {
                0 => assert_eq!(log.folds[r], 1, "round {round}: one fold, no crashes"),
                c => {
                    assert!(
                        log.folds[r] > 1,
                        "round {round}: crashers of distinct reach"
                    );
                    assert!(log.folds[r] <= n.min(1 << c), "round {round}");
                }
            }
            // Each receiver was handed the fold of its class's inbox.
            for &(receivers, senders) in inboxes {
                for dst in receivers {
                    assert_eq!(
                        engine.procs[dst.index()].0[r],
                        senders,
                        "round {round}: {dst}"
                    );
                }
            }
        }
        // A process recorded exactly the rounds it received in.
        let receptions: usize = log
            .inboxes
            .iter()
            .flatten()
            .map(|(receivers, _)| receivers.len())
            .sum();
        let recorded: usize = engine.procs.iter().map(|p| p.0.len()).sum();
        assert_eq!(receptions, recorded);
    }

    /// Floods the minimum like FloodMin, decides it after its own round
    /// `decide_at`, and keeps the sender set of every inbox it is handed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MinWatch {
        min: Val,
        decide_at: usize,
        decided: Option<Val>,
        heard: Vec<ProcessSet>,
    }

    impl RoundProcess for MinWatch {
        type Msg = Val;
        type Heard = (Option<Val>, ProcessSet);

        fn message(&self, _round: usize) -> Val {
            self.min
        }

        fn hear(_round: usize, msgs: &SenderMap<Val>) -> (Option<Val>, ProcessSet) {
            (msgs.values().min().copied(), msgs.senders())
        }

        fn receive(&mut self, round: usize, heard: &(Option<Val>, ProcessSet)) {
            if let Some(m) = heard.0 {
                self.min = self.min.min(m);
            }
            self.heard.push(heard.1);
            if round == self.decide_at {
                self.decided = Some(self.min);
            }
        }

        fn decision(&self) -> Option<Val> {
            self.decided
        }
    }

    /// What one round of the per-receiver reference did.
    #[derive(Debug, Default)]
    struct ReferenceRound {
        /// The senders each alive receiver heard, by receiver.
        inboxes: BTreeMap<ProcessId, ProcessSet>,
        /// The round's first decisions, ascending by process.
        decided: Vec<(ProcessId, Val)>,
        /// The round's per-pair event totals.
        counts: EventCounts,
        /// Round messages consumed by alive receivers.
        delivered: usize,
    }

    /// One lock-step round, executed receiver by receiver: each alive
    /// receiver's missed crashers, then the fold of the shared inbox
    /// without them, cached per missed set. This is the round body before
    /// receivers were grouped into inbox classes, kept as the reference
    /// the grouped executor is checked against.
    fn reference_round<P: RoundProcess>(
        procs: &mut [P],
        crashed: &mut ProcessSet,
        crashes: &[RoundCrash],
        round: usize,
    ) -> ReferenceRound {
        let n = procs.len();
        let everyone: ProcessSet = ProcessId::all(n).collect();
        let alive = everyone - *crashed;
        let mut out = ReferenceRound::default();
        let mut shared = SenderMap::with_capacity(n);
        let mut crashers: Vec<(ProcessId, ProcessSet)> = Vec::new();
        for src in alive {
            shared.insert(src, procs[src.index()].message(round));
            let crash_now = crashes.iter().find(|c| c.pid == src && c.round == round);
            let reached = crash_now.map_or(everyone, |c| c.receivers & everyone);
            out.counts.sends += n as u64;
            out.counts.dropped += (n - reached.len()) as u64;
            if crash_now.is_some() {
                crashers.push((src, reached));
                crashed.insert(src);
                out.counts.crashes += 1;
            }
        }
        let mut folds: BTreeMap<ProcessSet, (P::Heard, usize)> = BTreeMap::new();
        for dst in everyone - *crashed {
            let missed: ProcessSet = crashers
                .iter()
                .filter(|(_, reached)| !reached.contains(dst))
                .map(|&(pid, _)| pid)
                .collect();
            let (heard, delivered) = folds.entry(missed).or_insert_with(|| {
                let mut copy = shared.clone();
                for pid in missed {
                    copy.remove(pid);
                }
                (P::hear(round, &copy), copy.len())
            });
            let p = &mut procs[dst.index()];
            let had_decided = p.decision().is_some();
            p.receive(round, heard);
            out.delivered += *delivered;
            out.inboxes.insert(dst, alive - missed);
            if !had_decided {
                if let Some(value) = p.decision() {
                    out.decided.push((dst, value));
                }
            }
        }
        out.counts.delivers = out.delivered as u64;
        out.counts.decides = out.decided.len() as u64;
        out.counts.rounds = 1;
        out
    }

    /// The executor's round events as the provided per-pair expansions
    /// deliver them: each receiver's senders, counted pair by pair.
    #[derive(Debug, Default)]
    struct Expanded {
        inboxes: BTreeMap<ProcessId, ProcessSet>,
        counter: PerPairCounter,
        delivered: Option<usize>,
    }

    impl Observer<Val> for Expanded {
        fn on_send(&mut self, e: &SendEvent) {
            self.counter.on_send(e);
        }
        fn on_deliver(&mut self, e: &DeliverEvent) {
            self.inboxes.entry(e.dst).or_default().insert(e.src);
            self.counter.on_deliver(e);
        }
        fn on_crash(&mut self, e: &CrashEvent) {
            self.counter.on_crash(e);
        }
        fn on_decide(&mut self, e: &DecideEvent<Val>) {
            self.counter.on_decide(e);
        }
        fn on_round(&mut self, e: &RoundEvent) {
            self.delivered = Some(e.delivered);
            self.counter.on_round(e);
        }
    }

    #[test]
    fn inbox_classes_match_the_per_receiver_reference() {
        use kset_sim::observe::EventCounter;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xc1a55);
        // Every limb boundary the capacity has, then random sizes.
        let mut sizes = vec![1, 2, 3, 63, 64, 65, 127, 128, 129, 511, 512];
        sizes.extend((0..13).map(|_| rng.gen_range(1..=ProcessSet::CAPACITY)));
        for (case, &n) in sizes.iter().enumerate() {
            let rounds = rng.gen_range(1..=4usize);
            let mut victims: Vec<usize> = (0..n).collect();
            victims.shuffle(&mut rng);
            let mut victims = victims.into_iter();
            // 0–12 crashers per round. A reach is empty, everyone, all of
            // the capacity, or a random part of 0..n or of the capacity;
            // the executor must clip the ids ≥ n.
            let mut crashes = Vec::new();
            for round in 1..=rounds {
                let c = rng.gen_range(0..=12usize);
                for v in victims.by_ref().take(c) {
                    let density = f64::from(rng.gen_range(1..=3u32)) / 4.0;
                    let receivers: ProcessSet = match rng.gen_range(0..8u32) {
                        0 => ProcessSet::new(),
                        1 => ProcessId::all(n).collect(),
                        2 => ProcessId::all(ProcessSet::CAPACITY).collect(),
                        3..=5 => ProcessId::all(n)
                            .filter(|_| rng.gen_bool(density))
                            .collect(),
                        _ => ProcessId::all(ProcessSet::CAPACITY)
                            .filter(|_| rng.gen_bool(density))
                            .collect(),
                    };
                    crashes.push(RoundCrash {
                        round,
                        pid: ProcessId::new(v),
                        receivers,
                    });
                }
            }
            let procs: Vec<MinWatch> = (0..n)
                .map(|_| MinWatch {
                    min: rng.gen_range(0..=1000u64) as Val,
                    decide_at: rng.gen_range(1..=rounds),
                    decided: None,
                    heard: Vec::new(),
                })
                .collect();
            let mut engine = LockStep::new(procs.clone(), rounds, &crashes);
            let mut expanded_engine = engine.clone();
            let mut reference = procs;
            let mut reference_crashed = ProcessSet::new();
            let mut bulk: EventCounter<Val> = EventCounter::new();
            let mut expanded = Expanded::default();
            let mut expected = EventCounts::default();
            for round in 1..=rounds {
                let tag = format!("case {case}: n={n} round {round}/{rounds}");
                let want = reference_round(&mut reference, &mut reference_crashed, &crashes, round);
                let decided_before = bulk.decisions().len();
                assert!(engine.advance_observed(&mut bulk), "{tag}");
                expanded.inboxes.clear();
                assert!(expanded_engine.advance_observed(&mut expanded), "{tag}");

                assert_eq!(engine.procs, reference, "{tag}: folds handed out");
                assert_eq!(engine.crashed(), reference_crashed, "{tag}");
                let mut decided = bulk.decisions()[decided_before..].to_vec();
                decided.sort_unstable();
                assert_eq!(decided, want.decided, "{tag}: first decisions");
                assert_eq!(
                    expanded.inboxes, want.inboxes,
                    "{tag}: per-receiver senders"
                );
                assert_eq!(expanded.delivered, Some(want.delivered), "{tag}: delivered");
                expected.sends += want.counts.sends;
                expected.dropped += want.counts.dropped;
                expected.delivers += want.counts.delivers;
                expected.crashes += want.counts.crashes;
                expected.decides += want.counts.decides;
                expected.rounds += want.counts.rounds;
                assert_eq!(bulk.counts(), expected, "{tag}: grouped counts");
                assert_eq!(
                    expanded.counter.0.counts(),
                    expected,
                    "{tag}: per-pair counts"
                );
            }
            assert_eq!(expanded_engine.procs, engine.procs, "case {case}");
        }
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
