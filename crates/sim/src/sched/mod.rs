//! Schedulers: who steps next, and which messages it receives.
//!
//! In the paper's model the adversary controls scheduling and message
//! delivery (subject to the admissibility conditions of the model). A
//! [`Scheduler`] is exactly that adversary: at each point it inspects a
//! read-only [`SimView`] of the configuration and picks a [`Choice`] — the
//! next process to step and the [`Delivery`] it receives.
//!
//! Built-in schedulers:
//!
//! * [`RoundRobin`](crate::sched::round_robin::RoundRobin) — fair lock-step
//!   scheduling (synchronous processes, eager delivery);
//! * [`SeededRandom`](crate::sched::random::SeededRandom) — reproducible
//!   random asynchrony;
//! * [`PartitionScheduler`](crate::sched::partition::PartitionScheduler) —
//!   the partitioning adversary of the impossibility proofs: delays all
//!   cross-partition messages until every process has decided;
//! * [`Scripted`](crate::sched::scripted::Scripted) — replays a recorded
//!   schedule (the executable form of the run-pasting of Lemmas 11/12);
//! * [`DelayBounded`](crate::sched::delay_bounded::DelayBounded) — the
//!   laziest admissible adversary of the Δ-bounded (communication-
//!   synchronous) setting.

pub mod delay_bounded;
pub mod partition;
pub mod random;
pub mod round_robin;
pub mod scripted;

use crate::buffer::Buffer;
use crate::ids::{MsgId, ProcessId, ProcessSet, Time};

/// Which pending messages the stepping process receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver nothing (the model always allows an empty receive).
    None,
    /// Deliver every pending message.
    All,
    /// Deliver every pending message whose source is in the set.
    AllFrom(ProcessSet),
    /// Deliver the oldest `count` pending messages from each listed source.
    OldestPerSource(Vec<(ProcessId, usize)>),
    /// Deliver exactly the listed message ids (unknown ids are skipped).
    Ids(Vec<MsgId>),
}

/// A scheduling decision: step `pid`, delivering `delivery` to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// The process to step.
    pub pid: ProcessId,
    /// The messages it receives in this step.
    pub delivery: Delivery,
}

impl Choice {
    /// A step of `pid` receiving every pending message.
    pub fn deliver_all(pid: ProcessId) -> Self {
        Choice {
            pid,
            delivery: Delivery::All,
        }
    }
}

/// Liveness status of a process as seen by schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still taking steps; `local_steps` completed so far.
    Alive {
        /// Completed local steps.
        local_steps: u64,
    },
    /// Crashed at the given time (or initially dead at `Time::ZERO`).
    Crashed {
        /// Crash time.
        at: Time,
    },
}

impl Status {
    /// Whether the process can still take steps.
    pub fn is_alive(self) -> bool {
        matches!(self, Status::Alive { .. })
    }
}

/// Read-only view of the current configuration, handed to schedulers.
#[derive(Debug)]
pub struct SimView<'a, M> {
    /// System size `n`.
    pub n: usize,
    /// Current global time.
    pub time: Time,
    /// Per-process liveness.
    pub statuses: &'a [Status],
    /// Per-process "has decided" flags.
    pub decided: &'a [bool],
    /// Per-process pending-message buffers.
    pub buffers: &'a [Buffer<M>],
}

impl<'a, M> SimView<'a, M> {
    /// Whether `pid` can still take steps.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.statuses[pid.index()].is_alive()
    }

    /// Whether `pid` has decided.
    pub fn has_decided(&self, pid: ProcessId) -> bool {
        self.decided[pid.index()]
    }

    /// All alive processes, in id order.
    pub fn alive(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(move |p| self.is_alive(*p))
    }

    /// All alive processes that have not yet decided, in id order.
    pub fn alive_undecided(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.alive().filter(move |p| !self.has_decided(*p))
    }

    /// Number of messages pending for `pid`.
    pub fn pending(&self, pid: ProcessId) -> usize {
        self.buffers[pid.index()].len()
    }
}

/// The adversary: picks the next step of the run.
///
/// Returning `None` ends the run (the scheduler has no further moves). The
/// engine never steps a crashed process; a scheduler that selects one gets
/// an error from [`crate::engine::Simulation::step`], so well-behaved
/// schedulers should consult [`SimView::is_alive`].
pub trait Scheduler<M> {
    /// Chooses the next step given the current configuration, or `None` to
    /// stop.
    fn next(&mut self, view: &SimView<'_, M>) -> Option<Choice>;
}

impl<M, F> Scheduler<M> for F
where
    F: FnMut(&SimView<'_, M>) -> Option<Choice>,
{
    fn next(&mut self, view: &SimView<'_, M>) -> Option<Choice> {
        self(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_liveness() {
        assert!(Status::Alive { local_steps: 0 }.is_alive());
        assert!(!Status::Crashed { at: Time::ZERO }.is_alive());
    }

    #[test]
    fn view_helpers() {
        let statuses = vec![
            Status::Alive { local_steps: 1 },
            Status::Crashed { at: Time::ZERO },
            Status::Alive { local_steps: 0 },
        ];
        let decided = vec![true, false, false];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new(), Buffer::new()];
        let view = SimView {
            n: 3,
            time: Time::new(4),
            statuses: &statuses,
            decided: &decided,
            buffers: &buffers,
        };
        assert!(view.is_alive(ProcessId::new(0)));
        assert!(!view.is_alive(ProcessId::new(1)));
        assert_eq!(view.alive().count(), 2);
        let undecided: Vec<_> = view.alive_undecided().collect();
        assert_eq!(undecided, vec![ProcessId::new(2)]);
        assert_eq!(view.pending(ProcessId::new(0)), 0);
    }

    #[test]
    fn closure_is_a_scheduler() {
        let mut calls = 0;
        let mut sched = |view: &SimView<'_, u32>| {
            calls += 1;
            view.alive().next().map(Choice::deliver_all)
        };
        let statuses = vec![Status::Alive { local_steps: 0 }];
        let decided = vec![false];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new()];
        let view = SimView {
            n: 1,
            time: Time::ZERO,
            statuses: &statuses,
            decided: &decided,
            buffers: &buffers,
        };
        let choice = Scheduler::next(&mut sched, &view).unwrap();
        assert_eq!(choice.pid, ProcessId::new(0));
        assert_eq!(calls, 1);
    }
}
