//! The component contract and the four built-in component kinds.
//!
//! A [`Component`] is anything the event heap can wake: it names the next
//! instant it wants to run ([`Component::next_tick`]) and, when ticked,
//! emits [`Action`]s for the engine to apply. Components never touch the
//! simulation or each other directly — the engine owns all cross-component
//! effects — so each one is a small, independently testable state machine.

use std::collections::{BTreeMap, VecDeque};

use super::{ComponentId, VirtualTime};
use crate::ids::{MsgId, ProcessId};

/// An effect requested by a ticking [`Component`], applied by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Run one atomic step of the process, delivering whatever messages
    /// the fabric has released to it.
    StepProcess(ProcessId),
    /// The fabric released an in-flight message: make it deliverable and
    /// wake its destination.
    Deliver {
        /// The destination process.
        dst: ProcessId,
        /// The released message.
        id: MsgId,
    },
    /// The crash schedule struck: the process takes no further steps.
    Crash(ProcessId),
    /// The detector cadence pulsed: wake every alive, undecided process
    /// for a failure-detector sampling step.
    Pulse,
}

/// One participant in the discrete-event loop: a process clock, the link
/// fabric, the crash schedule or the detector cadence.
///
/// The contract with the engine:
///
/// * [`Component::next_tick`] is the earliest instant the component wants
///   to run, or `None` when idle. Whenever that instant changes to an
///   earlier value, a heap entry exists for it (the engine pushes one on
///   every externally caused change, and re-reads `next_tick` after every
///   tick to requeue the component itself).
/// * On pop, the engine runs the component only if the popped time still
///   equals `next_tick` — superseded entries are lazily skipped, so
///   `tick` always observes `now == next_tick`.
/// * [`Component::tick`] consumes everything due at `now` and pushes the
///   requested effects into `actions`; the engine applies them in order.
pub trait Component {
    /// This component's registry id (the heap key's third element).
    fn id(&self) -> ComponentId;

    /// The earliest instant this component wants to run, or `None` when
    /// it has nothing scheduled.
    fn next_tick(&self) -> Option<VirtualTime>;

    /// Runs the component at `now`, consuming everything due and pushing
    /// requested effects into `actions`.
    fn tick(&mut self, now: VirtualTime, actions: &mut Vec<Action>);
}

/// A process's wake-up agenda: the instants at which it should take a
/// step. Message arrivals and detector pulses insert wake times; ticking
/// collapses everything due into one [`Action::StepProcess`].
#[derive(Debug, Clone)]
pub struct ProcClock {
    id: ComponentId,
    pid: ProcessId,
    /// Pending wake times, ascending and distinct.
    agenda: Vec<VirtualTime>,
}

impl ProcClock {
    /// A clock for `pid` with an empty agenda.
    pub fn new(id: ComponentId, pid: ProcessId) -> Self {
        ProcClock {
            id,
            pid,
            agenda: Vec::new(),
        }
    }

    /// Schedules a wake-up at `at`; returns whether it is new. The caller
    /// pushes the matching heap entry.
    pub fn wake_at(&mut self, at: VirtualTime) -> bool {
        match self.agenda.binary_search(&at) {
            Ok(_) => false,
            Err(i) => {
                self.agenda.insert(i, at);
                true
            }
        }
    }

    /// Drops the whole agenda (the process crashed).
    pub fn retire(&mut self) {
        self.agenda.clear();
    }
}

impl Component for ProcClock {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<VirtualTime> {
        self.agenda.first().copied()
    }

    fn tick(&mut self, now: VirtualTime, actions: &mut Vec<Action>) {
        let due = self.agenda.partition_point(|&at| at <= now);
        self.agenda.drain(..due);
        if due > 0 {
            actions.push(Action::StepProcess(self.pid));
        }
    }
}

/// The link fabric: every in-flight message, bucketed by arrival instant
/// (earliest first) and in routing order within an instant. Ticking
/// releases everything that has arrived.
#[derive(Debug, Clone, Default)]
pub struct LinkFabric {
    id: ComponentId,
    buckets: VecDeque<(VirtualTime, Vec<(ProcessId, MsgId)>)>,
}

impl LinkFabric {
    /// An empty fabric.
    pub fn new(id: ComponentId) -> Self {
        LinkFabric {
            id,
            buckets: VecDeque::new(),
        }
    }

    /// Puts message `id` for `dst` in flight, arriving at `at`. Returns
    /// whether `at` is a new arrival instant: the caller pushes one heap
    /// entry per instant, not one per message.
    pub fn route(&mut self, at: VirtualTime, dst: ProcessId, id: MsgId) -> bool {
        match self.buckets.binary_search_by_key(&at, |&(t, _)| t) {
            Ok(i) => {
                self.buckets[i].1.push((dst, id));
                false
            }
            Err(i) => {
                self.buckets.insert(i, (at, vec![(dst, id)]));
                true
            }
        }
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.buckets.iter().map(|(_, bucket)| bucket.len()).sum()
    }
}

impl Component for LinkFabric {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<VirtualTime> {
        self.buckets.front().map(|&(at, _)| at)
    }

    fn tick(&mut self, now: VirtualTime, actions: &mut Vec<Action>) {
        while self.buckets.front().is_some_and(|&(at, _)| at <= now) {
            if let Some((_, bucket)) = self.buckets.pop_front() {
                actions.extend(
                    bucket
                        .into_iter()
                        .map(|(dst, id)| Action::Deliver { dst, id }),
                );
            }
        }
    }
}

/// The timed crash plan: at each scheduled instant the named processes
/// stop taking steps — crash-stop semantics, messages already in flight
/// still arrive.
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    id: ComponentId,
    agenda: BTreeMap<VirtualTime, Vec<ProcessId>>,
}

impl CrashSchedule {
    /// An empty schedule.
    pub fn new(id: ComponentId) -> Self {
        CrashSchedule {
            id,
            agenda: BTreeMap::new(),
        }
    }

    /// Schedules `pid` to crash at `at`. The caller pushes the matching
    /// heap entry (or relies on construction-time priming).
    pub fn schedule(&mut self, at: VirtualTime, pid: ProcessId) {
        self.agenda.entry(at).or_default().push(pid);
    }

    /// Every process with a scheduled crash, in schedule order.
    pub fn scheduled_pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.agenda.values().flatten().copied()
    }
}

impl Component for CrashSchedule {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<VirtualTime> {
        self.agenda.keys().next().copied()
    }

    fn tick(&mut self, now: VirtualTime, actions: &mut Vec<Action>) {
        let later = self.agenda.split_off(&now.next());
        for (_, pids) in std::mem::replace(&mut self.agenda, later) {
            actions.extend(pids.into_iter().map(Action::Crash));
        }
    }
}

/// The failure-detector cadence: a periodic pulse waking every alive,
/// undecided process so it samples its detector even when no messages
/// arrive. The engine disables the cadence once nobody is left to wake,
/// letting the heap drain.
#[derive(Debug, Clone)]
pub struct DetectorCadence {
    id: ComponentId,
    period: u64,
    next: VirtualTime,
    live: bool,
}

impl DetectorCadence {
    /// A cadence pulsing every `period` ticks (normalized to ≥ 1),
    /// starting at `period`.
    pub fn new(id: ComponentId, period: u64) -> Self {
        let period = period.max(1);
        DetectorCadence {
            id,
            period,
            next: VirtualTime::new(period),
            live: true,
        }
    }

    /// Stops all future pulses (nobody left to wake).
    pub fn retire(&mut self) {
        self.live = false;
    }
}

impl Component for DetectorCadence {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<VirtualTime> {
        self.live.then_some(self.next)
    }

    fn tick(&mut self, now: VirtualTime, actions: &mut Vec<Action>) {
        actions.push(Action::Pulse);
        self.next = now.plus(self.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(c: &mut dyn Component, now: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        c.tick(VirtualTime::new(now), &mut actions);
        actions
    }

    #[test]
    fn proc_clock_collapses_due_wakes_into_one_step() {
        let mut clock = ProcClock::new(ComponentId::new(3), ProcessId::new(1));
        assert_eq!(clock.next_tick(), None);
        assert!(clock.wake_at(VirtualTime::new(4)));
        assert!(clock.wake_at(VirtualTime::new(2)));
        assert!(!clock.wake_at(VirtualTime::new(2)), "agenda deduplicates");
        assert!(clock.wake_at(VirtualTime::new(9)));
        assert_eq!(clock.next_tick(), Some(VirtualTime::new(2)));
        assert_eq!(
            run(&mut clock, 4),
            vec![Action::StepProcess(ProcessId::new(1))]
        );
        assert_eq!(
            clock.next_tick(),
            Some(VirtualTime::new(9)),
            "later wakes survive"
        );
        clock.retire();
        assert_eq!(clock.next_tick(), None);
    }

    #[test]
    fn fabric_releases_arrivals_in_routing_order() {
        let mut fabric = LinkFabric::new(ComponentId::new(0));
        assert!(fabric.route(VirtualTime::new(5), ProcessId::new(2), MsgId::new(10)));
        assert!(fabric.route(VirtualTime::new(3), ProcessId::new(1), MsgId::new(11)));
        assert!(
            !fabric.route(VirtualTime::new(5), ProcessId::new(0), MsgId::new(12)),
            "t5 already has a heap entry"
        );
        assert_eq!(fabric.next_tick(), Some(VirtualTime::new(3)));
        assert_eq!(fabric.in_flight(), 3);
        assert_eq!(
            run(&mut fabric, 5),
            vec![
                Action::Deliver {
                    dst: ProcessId::new(1),
                    id: MsgId::new(11)
                },
                Action::Deliver {
                    dst: ProcessId::new(2),
                    id: MsgId::new(10)
                },
                Action::Deliver {
                    dst: ProcessId::new(0),
                    id: MsgId::new(12)
                },
            ],
            "time order first, routing order within one instant"
        );
        assert_eq!(fabric.next_tick(), None);
    }

    #[test]
    fn crash_schedule_strikes_everything_due() {
        let mut crashes = CrashSchedule::new(ComponentId::new(0));
        crashes.schedule(VirtualTime::new(2), ProcessId::new(0));
        crashes.schedule(VirtualTime::new(2), ProcessId::new(3));
        crashes.schedule(VirtualTime::new(7), ProcessId::new(1));
        assert_eq!(
            crashes.scheduled_pids().collect::<Vec<_>>(),
            vec![ProcessId::new(0), ProcessId::new(3), ProcessId::new(1)]
        );
        assert_eq!(
            run(&mut crashes, 2),
            vec![
                Action::Crash(ProcessId::new(0)),
                Action::Crash(ProcessId::new(3))
            ]
        );
        assert_eq!(crashes.next_tick(), Some(VirtualTime::new(7)));
    }

    #[test]
    fn cadence_pulses_until_retired() {
        let mut cadence = DetectorCadence::new(ComponentId::new(0), 5);
        assert_eq!(cadence.next_tick(), Some(VirtualTime::new(5)));
        assert_eq!(run(&mut cadence, 5), vec![Action::Pulse]);
        assert_eq!(cadence.next_tick(), Some(VirtualTime::new(10)));
        cadence.retire();
        assert_eq!(cadence.next_tick(), None);
        // Period 0 normalizes: the cadence must always advance.
        assert_eq!(
            DetectorCadence::new(ComponentId::new(0), 0).next_tick(),
            Some(VirtualTime::new(1))
        );
    }
}
