//! The state of the engine's wakeable parts: a clock per process, the link
//! fabric, the timed crash schedule and the detector cadence.
//!
//! Each part names the next instant it wants to be woken at and takes what
//! is due when woken; the engine's `dispatch` does everything else — it
//! pushes the heap entries, skips stale ones and applies the effects — so
//! each part is a small, independently testable piece of state.

use std::collections::{BTreeMap, VecDeque};

use super::VirtualTime;
use crate::ids::{MsgId, ProcessId};

/// A process's wake-up agenda: the instants at which it should take a
/// step, ascending and distinct. Message arrivals and detector pulses add
/// wake times; one step takes every wake due.
#[derive(Debug, Clone, Default)]
pub(super) struct ProcClock {
    agenda: Vec<VirtualTime>,
}

impl ProcClock {
    /// Schedules a wake-up at `at`; returns whether it is new. The caller
    /// pushes the matching heap entry.
    pub(super) fn wake_at(&mut self, at: VirtualTime) -> bool {
        match self.agenda.binary_search(&at) {
            Ok(_) => false,
            Err(i) => {
                self.agenda.insert(i, at);
                true
            }
        }
    }

    /// The earliest pending wake-up.
    pub(super) fn next_wake(&self) -> Option<VirtualTime> {
        self.agenda.first().copied()
    }

    /// Takes every wake-up due at `now`.
    pub(super) fn take_due(&mut self, now: VirtualTime) {
        let due = self.agenda.partition_point(|&at| at <= now);
        self.agenda.drain(..due);
    }

    /// Drops the whole agenda (the process crashed).
    pub(super) fn retire(&mut self) {
        self.agenda.clear();
    }
}

/// The link fabric: every in-flight message, bucketed by arrival instant
/// (earliest first) and in routing order within an instant.
#[derive(Debug, Clone, Default)]
pub(super) struct LinkFabric {
    buckets: VecDeque<(VirtualTime, Vec<(ProcessId, MsgId)>)>,
}

impl LinkFabric {
    /// Puts message `id` for `dst` in flight, arriving at `at`. Returns
    /// whether `at` is a new arrival instant: the caller pushes one heap
    /// entry per instant, not one per message.
    pub(super) fn route(&mut self, at: VirtualTime, dst: ProcessId, id: MsgId) -> bool {
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

    /// The earliest arrival instant.
    pub(super) fn next_wake(&self) -> Option<VirtualTime> {
        self.buckets.front().map(|&(at, _)| at)
    }

    /// Releases every message arriving at the earliest arrival instant, in
    /// routing order.
    pub(super) fn release(&mut self) -> Vec<(ProcessId, MsgId)> {
        self.buckets
            .pop_front()
            .map(|(_, bucket)| bucket)
            .unwrap_or_default()
    }
}

/// The timed crash plan: at each scheduled instant the named processes
/// stop taking steps — crash-stop semantics, messages already in flight
/// still arrive.
#[derive(Debug, Clone, Default)]
pub(super) struct CrashSchedule {
    agenda: BTreeMap<VirtualTime, Vec<ProcessId>>,
}

impl CrashSchedule {
    /// Schedules `pid` to crash at `at`. The caller pushes the matching
    /// heap entry (or relies on construction-time priming).
    pub(super) fn schedule(&mut self, at: VirtualTime, pid: ProcessId) {
        self.agenda.entry(at).or_default().push(pid);
    }

    /// The earliest scheduled strike.
    pub(super) fn next_wake(&self) -> Option<VirtualTime> {
        self.agenda.keys().next().copied()
    }

    /// Takes every crash due at `now`, in schedule order. The bound is
    /// inclusive, so a crash at the last instant of virtual time strikes
    /// too.
    pub(super) fn strike(&mut self, now: VirtualTime) -> Vec<ProcessId> {
        let mut due = Vec::new();
        while let Some(entry) = self.agenda.first_entry() {
            if *entry.key() > now {
                break;
            }
            due.extend(entry.remove());
        }
        due
    }
}

/// The failure-detector cadence: a periodic pulse waking every alive,
/// undecided process so it samples its detector even when no messages
/// arrive. The engine retires the cadence once nobody is left to wake,
/// letting the heap drain.
#[derive(Debug, Clone)]
pub(super) struct DetectorCadence {
    period: u64,
    next: VirtualTime,
    live: bool,
}

impl DetectorCadence {
    /// A cadence pulsing every `period` ticks (normalized to ≥ 1),
    /// starting at `period`.
    pub(super) fn new(period: u64) -> Self {
        let period = period.max(1);
        DetectorCadence {
            period,
            next: VirtualTime::new(period),
            live: true,
        }
    }

    /// The next pulse, unless retired.
    pub(super) fn next_wake(&self) -> Option<VirtualTime> {
        self.live.then_some(self.next)
    }

    /// Pulses at `now`: the next pulse is one period later.
    pub(super) fn pulse(&mut self, now: VirtualTime) {
        self.next = now.plus(self.period);
    }

    /// Stops all future pulses (nobody left to wake).
    pub(super) fn retire(&mut self) {
        self.live = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u64) -> VirtualTime {
        VirtualTime::new(raw)
    }

    #[test]
    fn proc_clock_collapses_due_wakes_into_one_step() {
        let mut clock = ProcClock::default();
        assert_eq!(clock.next_wake(), None);
        assert!(clock.wake_at(t(4)));
        assert!(clock.wake_at(t(2)));
        assert!(!clock.wake_at(t(2)), "agenda deduplicates");
        assert!(clock.wake_at(t(9)));
        assert_eq!(clock.next_wake(), Some(t(2)));
        clock.take_due(t(4));
        assert_eq!(clock.next_wake(), Some(t(9)), "later wakes survive");
        clock.retire();
        assert_eq!(clock.next_wake(), None);
    }

    #[test]
    fn fabric_releases_arrivals_in_routing_order() {
        let mut fabric = LinkFabric::default();
        assert!(fabric.route(t(5), ProcessId::new(2), MsgId::new(10)));
        assert!(fabric.route(t(3), ProcessId::new(1), MsgId::new(11)));
        assert!(
            !fabric.route(t(5), ProcessId::new(0), MsgId::new(12)),
            "t5 already has a heap entry"
        );
        assert_eq!(fabric.next_wake(), Some(t(3)));
        assert_eq!(fabric.release(), vec![(ProcessId::new(1), MsgId::new(11))]);
        assert_eq!(fabric.next_wake(), Some(t(5)));
        assert_eq!(
            fabric.release(),
            vec![
                (ProcessId::new(2), MsgId::new(10)),
                (ProcessId::new(0), MsgId::new(12)),
            ],
            "time order first, routing order within one instant"
        );
        assert_eq!(fabric.next_wake(), None);
    }

    #[test]
    fn crash_schedule_strikes_everything_due() {
        let mut crashes = CrashSchedule::default();
        crashes.schedule(t(2), ProcessId::new(0));
        crashes.schedule(t(u64::MAX), ProcessId::new(5));
        crashes.schedule(t(2), ProcessId::new(3));
        crashes.schedule(t(7), ProcessId::new(1));
        assert_eq!(crashes.next_wake(), Some(t(2)));
        assert_eq!(
            crashes.strike(t(2)),
            vec![ProcessId::new(0), ProcessId::new(3)]
        );
        assert_eq!(crashes.next_wake(), Some(t(7)));
        assert_eq!(crashes.strike(t(7)), vec![ProcessId::new(1)]);
        // The last instant of virtual time is due at itself.
        assert_eq!(crashes.strike(t(u64::MAX)), vec![ProcessId::new(5)]);
        assert_eq!(crashes.next_wake(), None);
    }

    #[test]
    fn cadence_pulses_until_retired() {
        let mut cadence = DetectorCadence::new(5);
        assert_eq!(cadence.next_wake(), Some(t(5)));
        cadence.pulse(t(5));
        assert_eq!(cadence.next_wake(), Some(t(10)));
        cadence.retire();
        assert_eq!(cadence.next_wake(), None);
        // Period 0 normalizes: the cadence must always advance.
        assert_eq!(DetectorCadence::new(0).next_wake(), Some(t(1)));
    }
}
