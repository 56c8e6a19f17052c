//! Run observation: typed events emitted by every execution substrate.
//!
//! The paper's arguments are about *what runs look like* — which messages
//! were delivered where, who crashed mid-round, which decision patterns
//! appear. This module makes that observable through one API: an
//! [`Observer`] receives typed run events from **any** substrate — the
//! step-level simulator ([`SimEngine`](crate::SimEngine) /
//! [`Simulation`](crate::Simulation)), the discrete-event engine
//! ([`DesEngine`](crate::des::DesEngine), whose steps run the simulator's
//! step body) and the round-level lock-step executor of `kset-core` —
//! threaded uniformly through
//! [`Engine::drive_observed`](crate::Engine::drive_observed). Each
//! substrate has one unit body, generic over its observer, so
//! [`Engine::drive`](crate::Engine::drive) is that body run with a
//! [`NoObserver`] whose callbacks compile away.
//!
//! The simulator's own trace recording is itself just one observer:
//! [`TraceRecorder`](crate::trace::TraceRecorder) assembles the exact
//! [`Trace`](crate::Trace) the engine used to build inline, from the same
//! event stream every external observer sees.
//!
//! # Event vocabulary and emission contract
//!
//! Within one unit of execution the substrates emit, in order:
//!
//! * **step substrate** (one process step, on the discrete-event engine
//!   too): [`Observer::on_deliver`] per consumed envelope,
//!   [`Observer::on_fd_sample`] once, [`Observer::on_decide`] if the step
//!   made a (first) decision, [`Observer::on_send`] per emitted message
//!   (dropped ones included), [`Observer::on_step`] closing the step, then
//!   [`Observer::on_crash`] when the step was the process's final one.
//!   Initially-dead crashes predate any drive;
//!   [`Engine::drive_observed`](crate::Engine::drive_observed) replays
//!   them to the observer up front (`after_step == false`). A
//!   discrete-event timed crash strikes between steps: one
//!   [`Observer::on_crash`] with `after_step == true`.
//! * **round substrate** (one lock-step round): one
//!   [`Observer::on_broadcast`] for the alive senders whose round message
//!   reached everyone, when there are any, then per mid-round crasher, in
//!   ascending id order, its own [`Observer::on_broadcast`] followed by
//!   [`Observer::on_crash`]; then per *inbox class* — the alive receivers
//!   that heard the same senders — in order of each class's smallest
//!   receiver, one [`Observer::on_inbox`] naming the class's receivers and
//!   the senders they heard, followed by [`Observer::on_decide`] for each
//!   receiver of the class, ascending, whose receive first produced a
//!   decision; and finally [`Observer::on_round`] closing the round.
//! * Every substrate: [`Observer::on_halt`] exactly once, when
//!   [`Engine::drive_observed`](crate::Engine::drive_observed) stops.
//!
//! The two round events are grouped forms of the per-pair stream, and
//! their provided implementations expand into it: a [`BroadcastEvent`]
//! becomes, per sender ascending, one [`Observer::on_send`] per
//! destination `0..n`, ascending, with the destinations the broadcast did
//! not reach marked `dropped` (a crashing sender's omitted deliveries — so
//! *transmitted* send counts agree with the step substrate); an
//! [`InboxEvent`] becomes, per receiver ascending, one
//! [`Observer::on_deliver`] per sender heard, ascending. An observer that
//! implements only the per-pair methods therefore sees every pair a
//! per-pair round executor would emit, in class order: the
//! fully-reaching senders before the crashers, and a class's receivers
//! before the next class's. [`EventCounter`] overrides both to count a
//! grouped event with at most two set sizes and two multiplications, and
//! [`NoObserver`] overrides both with no-ops.
//!
//! The round substrate carries no message ids and does not fingerprint
//! payloads (round messages need not be hashable), so [`SendEvent::id`],
//! [`DeliverEvent::id`] and the payload fingerprints are `Option`s: always
//! `Some` on the step substrate, always `None` on the round substrate.
//!
//! # Cross-substrate consistency
//!
//! For one [`Scenario`](crate::Scenario) compiled to both substrates under
//! the lock-step schedule family, an [`EventCounter`] observes **equal**
//! transmitted-send counts, decide counts (and decided values), and crash
//! counts on both sides; with no crashes the deliver counts agree too.
//! With crashes the step substrate may deliver *more*: a message can reach
//! a process's buffer and be consumed before the crash that the round
//! executor expresses as "skip the receive phase" — partial round
//! deliveries made visible, which is exactly the observability the paper's
//! indistinguishability arguments need. The differential conformance suite
//! asserts these relations on the Theorem 8 border grid.
//!
//! # Examples
//!
//! ```
//! use kset_sim::observe::EventCounter;
//! use kset_sim::sched::round_robin::RoundRobin;
//! # use kset_sim::{CrashPlan, Effects, Envelope, Process, ProcessInfo};
//! use kset_sim::{Engine, SimEngine, Simulation};
//! # #[derive(Debug, Clone, Hash)]
//! # struct Echo(u32);
//! # impl Process for Echo {
//! #     type Msg = u32;
//! #     type Input = u32;
//! #     type Output = u32;
//! #     type Fd = ();
//! #     fn init(_info: ProcessInfo, input: u32) -> Self { Echo(input) }
//! #     fn step(&mut self, _d: &[Envelope<u32>], _fd: Option<&()>, e: &mut Effects<u32, u32>) {
//! #         e.decide(self.0);
//! #     }
//! # }
//!
//! let sim: Simulation<Echo, _> = Simulation::new(vec![7, 7], CrashPlan::none());
//! let mut engine = SimEngine::new(sim, RoundRobin::new());
//! let mut counter = EventCounter::new();
//! engine.drive_observed(100, &mut counter);
//! let counts = counter.counts();
//! assert_eq!(counts.decides, 2);
//! assert_eq!(counts.halts, 1);
//! ```

use crate::engine::RunStatus;
use crate::ids::{MsgId, ProcessId, ProcessSet, Time};

/// A message emission, as observed at the sending substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEvent {
    /// Global time of the send: the step's time on the step substrate, the
    /// (1-based) round number on the round substrate.
    pub time: Time,
    /// The sender.
    pub src: ProcessId,
    /// The destination.
    pub dst: ProcessId,
    /// The engine-assigned message id (`None` on the round substrate,
    /// which tracks no ids).
    pub id: Option<MsgId>,
    /// Fingerprint of the payload (`None` on the round substrate, whose
    /// messages need not be hashable).
    pub payload_fp: Option<u64>,
    /// Whether the message never reached a buffer/inbox: dropped by a
    /// final-step omission rule, a mid-round crash, or an out-of-range
    /// destination.
    pub dropped: bool,
}

/// A message consumption, as observed at the receiving substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverEvent {
    /// Global time of the consuming step, or the round being received.
    pub time: Time,
    /// The original sender.
    pub src: ProcessId,
    /// The consuming process.
    pub dst: ProcessId,
    /// The message id (`None` on the round substrate).
    pub id: Option<MsgId>,
    /// Fingerprint of the payload (`None` on the round substrate).
    pub payload_fp: Option<u64>,
}

/// A failure-detector query (step substrate only; the round substrate's
/// model point has no detectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdSampleEvent {
    /// Time of the querying step.
    pub time: Time,
    /// The querying process.
    pub pid: ProcessId,
    /// Fingerprint of the sample handed out.
    pub fd_fp: Option<u64>,
}

/// One completed atomic step of one process (step substrate only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Global time of the step (1-based).
    pub time: Time,
    /// The stepping process.
    pub pid: ProcessId,
    /// The process's local step count after this step (1-based).
    pub local_step: u64,
    /// Fingerprint of the local state *after* the step.
    pub state_fp: u64,
    /// Envelopes consumed by the step.
    pub delivered: usize,
    /// Messages emitted by the step (dropped ones included).
    pub sent: usize,
}

/// Round messages broadcast to all `n` processes by a group of senders
/// that reached the same destinations (round substrate only): the bulk
/// form of `n` [`SendEvent`]s per sender.
///
/// A round reports its fully-reaching senders as one group and each
/// mid-round crasher as a group of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastEvent {
    /// The round being sent (1-based).
    pub time: Time,
    /// The broadcasting processes.
    pub senders: ProcessSet,
    /// The system size: each broadcast addresses destinations `0..n`.
    pub n: usize,
    /// The destinations every sender's message reached, a subset of
    /// `0..n`: all of them, or a crashing sender's chosen receivers.
    pub reached: ProcessSet,
}

/// One round inbox consumed by a class of alive receivers that heard the
/// same senders (round substrate only): the bulk form of one
/// [`DeliverEvent`] per receiver and sender heard.
///
/// A round's classes partition its alive receivers; two receivers share
/// a class exactly when the same mid-round crashers missed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InboxEvent {
    /// The round being received (1-based).
    pub time: Time,
    /// The consuming processes.
    pub receivers: ProcessSet,
    /// The senders whose round message reached every one of `receivers`.
    pub senders: ProcessSet,
}

/// One completed lock-step round (round substrate only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundEvent {
    /// The executed round (1-based).
    pub round: usize,
    /// Processes still alive at the end of the round.
    pub alive: usize,
    /// Round messages consumed by alive receivers this round.
    pub delivered: usize,
}

/// A process crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Crash time: the final step's time, or the crash round.
    pub time: Time,
    /// The crashed process.
    pub pid: ProcessId,
    /// Whether the crash ended a final step / mid-round send (`true`) or
    /// the process was dead from the start (`false`).
    pub after_step: bool,
}

/// A (first) decision of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideEvent<V> {
    /// Time of the deciding step, or the round whose receive phase
    /// produced the decision.
    pub time: Time,
    /// The deciding process.
    pub pid: ProcessId,
    /// The decided value.
    pub value: V,
}

/// The end of an observed drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaltEvent {
    /// The drive's final status (units executed by the drive, stop
    /// reason).
    pub status: RunStatus,
    /// Units executed over the engine's whole lifetime.
    pub units: u64,
}

/// A receiver of typed run events, attachable to **any** execution
/// substrate through [`Engine::drive_observed`](crate::Engine::drive_observed).
///
/// Every method defaults to a no-op, except the round substrate's bulk
/// [`Observer::on_broadcast`] and [`Observer::on_inbox`], which default to
/// their per-pair expansion; so an observer implements only the events it
/// cares about. The type parameter `V` is the substrate's
/// decision value type ([`Engine::Output`](crate::Engine::Output)).
///
/// See the [module docs](self) for the per-substrate emission contract.
pub trait Observer<V> {
    /// Whether this observer consumes per-event callbacks.
    ///
    /// The step body of the step and discrete-event substrates builds a
    /// step's events — the state and payload fingerprints among them —
    /// only when its trace recorder or an observer answering `true`
    /// consumes them, so an unobserved, untraced step (the exhaustive
    /// explorer's) hashes nothing and makes no step callbacks. The round
    /// body and the discrete-event crash strikes make their callbacks
    /// either way. Defaults to `true`; only [`NoObserver`] answers
    /// `false`.
    fn observes_events(&self) -> bool {
        true
    }

    /// A message was emitted (possibly dropped).
    fn on_send(&mut self, event: &SendEvent) {
        let _ = event;
    }

    /// A message was consumed by its destination.
    fn on_deliver(&mut self, event: &DeliverEvent) {
        let _ = event;
    }

    /// A failure detector was queried (step substrate only).
    fn on_fd_sample(&mut self, event: &FdSampleEvent) {
        let _ = event;
    }

    /// A process completed one atomic step (step substrate only).
    fn on_step(&mut self, event: &StepEvent) {
        let _ = event;
    }

    /// A group of round messages was broadcast (round substrate only).
    /// The default expands it, per sender ascending, into one
    /// [`Observer::on_send`] per destination `0..n`, ascending, marking
    /// the destinations outside `reached` as `dropped`.
    fn on_broadcast(&mut self, event: &BroadcastEvent) {
        for src in event.senders {
            for dst in ProcessId::all(event.n) {
                self.on_send(&SendEvent {
                    time: event.time,
                    src,
                    dst,
                    id: None,
                    payload_fp: None,
                    dropped: !event.reached.contains(dst),
                });
            }
        }
    }

    /// A class of receivers consumed one round inbox (round substrate
    /// only). The default expands it, per receiver ascending, into one
    /// [`Observer::on_deliver`] per sender, ascending.
    fn on_inbox(&mut self, event: &InboxEvent) {
        for dst in event.receivers {
            for src in event.senders {
                self.on_deliver(&DeliverEvent {
                    time: event.time,
                    src,
                    dst,
                    id: None,
                    payload_fp: None,
                });
            }
        }
    }

    /// A lock-step round completed (round substrate only).
    fn on_round(&mut self, event: &RoundEvent) {
        let _ = event;
    }

    /// A process crashed.
    fn on_crash(&mut self, event: &CrashEvent) {
        let _ = event;
    }

    /// A process made its (first) decision.
    fn on_decide(&mut self, event: &DecideEvent<V>) {
        let _ = event;
    }

    /// The observed drive stopped.
    fn on_halt(&mut self, event: &HaltEvent) {
        let _ = event;
    }
}

/// The trivial observer: ignores every event.
///
/// [`Engine::drive`](crate::Engine::drive) is exactly
/// [`Engine::drive_observed`](crate::Engine::drive_observed) with a
/// `NoObserver`, and each substrate's unit body is generic over its
/// observer, so the no-op callbacks compile away and observation support
/// costs unobserved runs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObserver;

impl<V> Observer<V> for NoObserver {
    fn observes_events(&self) -> bool {
        false
    }

    // The round executor's unobserved path is its observed body with a
    // `NoObserver`; without these overrides the default per-pair
    // expansions would keep their loops in that path.
    fn on_broadcast(&mut self, _event: &BroadcastEvent) {}

    fn on_inbox(&mut self, _event: &InboxEvent) {}
}

/// Event totals of one observed run — the cross-substrate conformance
/// observable, and the payload of
/// [`Observation::Counts`](crate::sweep::Observation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EventCounts {
    /// Messages emitted (dropped ones included).
    pub sends: u64,
    /// Emitted messages that never reached a buffer/inbox.
    pub dropped: u64,
    /// Messages consumed by their destination.
    pub delivers: u64,
    /// Failure-detector queries (step substrate only).
    pub fd_samples: u64,
    /// Atomic steps (step substrate only).
    pub steps: u64,
    /// Lock-step rounds (round substrate only).
    pub rounds: u64,
    /// Process crashes (initial deaths included).
    pub crashes: u64,
    /// First decisions.
    pub decides: u64,
    /// Observed drives that stopped.
    pub halts: u64,
}

impl EventCounts {
    /// Messages that actually reached a buffer or round inbox — the count
    /// that agrees *exactly* across substrates for one lock-step scenario.
    pub fn transmitted(&self) -> u64 {
        self.sends - self.dropped
    }
}

/// An [`Observer`] that counts every event and remembers the decided
/// values — the "consistent observation" both substrates must agree on for
/// one lock-step scenario (see the [module docs](self)).
///
/// It counts a grouped round event without expanding it: a
/// [`BroadcastEvent`] adds `n · |senders|` sends, of which
/// `(n − |reached|) · |senders|` dropped, and an [`InboxEvent`] adds
/// `|receivers| · |senders|` deliveries — at most two set sizes per
/// event and no loop over its members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounter<V> {
    counts: EventCounts,
    /// `(pid, value)` of every observed decision, in observation order.
    decisions: Vec<(ProcessId, V)>,
}

impl<V> EventCounter<V> {
    /// A counter with all tallies at zero.
    pub fn new() -> Self {
        EventCounter {
            counts: EventCounts::default(),
            decisions: Vec::new(),
        }
    }

    /// The event totals so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// The observed `(pid, value)` decisions, in observation order.
    pub fn decisions(&self) -> &[(ProcessId, V)] {
        &self.decisions
    }

    /// The decided values keyed by process, for order-insensitive
    /// cross-substrate comparison.
    pub fn decisions_by_process(&self) -> std::collections::BTreeMap<ProcessId, V>
    where
        V: Clone,
    {
        self.decisions
            .iter()
            .map(|(p, v)| (*p, v.clone()))
            .collect()
    }
}

impl<V: Clone> Observer<V> for EventCounter<V> {
    fn on_send(&mut self, event: &SendEvent) {
        self.counts.sends += 1;
        if event.dropped {
            self.counts.dropped += 1;
        }
    }

    fn on_deliver(&mut self, _event: &DeliverEvent) {
        self.counts.delivers += 1;
    }

    fn on_broadcast(&mut self, event: &BroadcastEvent) {
        let senders = event.senders.len() as u64;
        self.counts.sends += event.n as u64 * senders;
        self.counts.dropped += (event.n - event.reached.len()) as u64 * senders;
    }

    fn on_inbox(&mut self, event: &InboxEvent) {
        self.counts.delivers += (event.receivers.len() * event.senders.len()) as u64;
    }

    fn on_fd_sample(&mut self, _event: &FdSampleEvent) {
        self.counts.fd_samples += 1;
    }

    fn on_step(&mut self, _event: &StepEvent) {
        self.counts.steps += 1;
    }

    fn on_round(&mut self, _event: &RoundEvent) {
        self.counts.rounds += 1;
    }

    fn on_crash(&mut self, _event: &CrashEvent) {
        self.counts.crashes += 1;
    }

    fn on_decide(&mut self, event: &DecideEvent<V>) {
        self.counts.decides += 1;
        self.decisions.push((event.pid, event.value.clone()));
    }

    fn on_halt(&mut self, _event: &HaltEvent) {
        self.counts.halts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_observer_ignores_everything() {
        let mut obs = NoObserver;
        Observer::<u64>::on_crash(
            &mut obs,
            &CrashEvent {
                time: Time::ZERO,
                pid: ProcessId::new(0),
                after_step: false,
            },
        );
        Observer::<u64>::on_halt(
            &mut obs,
            &HaltEvent {
                status: RunStatus {
                    steps: 0,
                    stop: crate::StopReason::SchedulerDone,
                },
                units: 0,
            },
        );
    }

    #[test]
    fn event_counter_tallies_and_remembers_decisions() {
        let mut c: EventCounter<u64> = EventCounter::new();
        c.on_send(&SendEvent {
            time: Time::new(1),
            src: ProcessId::new(0),
            dst: ProcessId::new(1),
            id: Some(MsgId::new(0)),
            payload_fp: Some(7),
            dropped: false,
        });
        c.on_send(&SendEvent {
            time: Time::new(1),
            src: ProcessId::new(0),
            dst: ProcessId::new(2),
            id: None,
            payload_fp: None,
            dropped: true,
        });
        c.on_decide(&DecideEvent {
            time: Time::new(2),
            pid: ProcessId::new(1),
            value: 42u64,
        });
        let counts = c.counts();
        assert_eq!(counts.sends, 2);
        assert_eq!(counts.dropped, 1);
        assert_eq!(counts.transmitted(), 1);
        assert_eq!(counts.decides, 1);
        assert_eq!(c.decisions(), &[(ProcessId::new(1), 42)]);
        assert_eq!(
            c.decisions_by_process().get(&ProcessId::new(1)),
            Some(&42u64)
        );
    }
}
