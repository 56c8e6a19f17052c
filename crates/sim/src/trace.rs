//! Run traces: the recorded history of a simulation.
//!
//! A *run* in the paper is an infinite sequence of configurations
//! `ρ = (C0, C1, …)` where each `C_{i+1}` results from a step of a single
//! process. The simulator produces finite run *prefixes*; a [`Trace`]
//! records, for every step, who stepped, what was delivered, a fingerprint
//! of the resulting local state, what was sent, and any decision made — plus
//! crash events.
//!
//! Traces serve four purposes:
//!
//! 1. extracting the **failure pattern** `F(·)` of the run;
//! 2. extracting per-process **state sequences** for the
//!    indistinguishability checks of Definition 2 ([`Trace::process_view`]);
//! 3. extracting a replayable **schedule** (who stepped, with which
//!    per-source delivery counts) used by the run-pasting machinery of
//!    Lemmas 11/12 ([`Trace::schedule`]);
//! 4. post-hoc **admissibility** checks ([`crate::admissible`]).
//!
//! The trace is generic only in the decision value type `V`; message
//! payloads and process states are stored as 64-bit fingerprints so traces
//! of different algorithms share one representation.
//!
//! Recording is an observation concern: [`TraceRecorder`] is an
//! [`Observer`] that assembles a [`Trace`] from the typed event stream of
//! [`crate::observe`] — the engine's built-in trace is just this observer
//! attached internally, and the same recorder can be attached to any
//! engine through [`Engine::drive_observed`](crate::Engine::drive_observed).

use crate::failure::FailurePattern;
use crate::ids::{MsgId, ProcessId, Time};
use crate::observe::{
    CrashEvent, DecideEvent, DeliverEvent, FdSampleEvent, Observer, SendEvent, StepEvent,
};

/// One delivered message as recorded in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredRecord {
    /// Message id.
    pub id: MsgId,
    /// Sender.
    pub src: ProcessId,
    /// Fingerprint of the payload.
    pub payload_fp: u64,
}

/// One send as recorded in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRecord {
    /// Message id assigned by the engine (also assigned to dropped sends).
    pub id: MsgId,
    /// Destination.
    pub dst: ProcessId,
    /// Fingerprint of the payload.
    pub payload_fp: u64,
    /// Whether the send never reached a buffer — dropped by a final-step
    /// omission rule, or addressed to a destination outside the system.
    pub dropped: bool,
}

/// The record of one step of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord<V> {
    /// Global time of the step (1-based: the first step of the run has
    /// `time == Time::new(1)`).
    pub time: Time,
    /// The stepping process.
    pub pid: ProcessId,
    /// The process's local step count after this step (1-based).
    pub local_step: u64,
    /// Messages consumed by this step.
    pub delivered: Vec<DeliveredRecord>,
    /// Fingerprint of the failure-detector sample, if the model provides
    /// detectors.
    pub fd_fp: Option<u64>,
    /// Fingerprint of the local state *after* the step.
    pub state_fp: u64,
    /// Decision made in this step, if any.
    pub decided: Option<V>,
    /// Messages emitted by this step (including dropped ones).
    pub sent: Vec<SendRecord>,
}

/// A trace event: a step or a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent<V> {
    /// A process took a step.
    Step(StepRecord<V>),
    /// A process crashed at the given time. `after_step` is true when the
    /// crash happened at the end of the process's final step (with possible
    /// send omission), false for initial deaths.
    Crash {
        /// The crashed process.
        pid: ProcessId,
        /// Crash time.
        time: Time,
        /// Whether the crash ended a final step (vs. initial death).
        after_step: bool,
    },
}

/// The full recorded history of a simulation run prefix.
#[derive(Debug, Clone)]
pub struct Trace<V> {
    n: usize,
    events: Vec<TraceEvent<V>>,
}

impl<V: Clone> Trace<V> {
    /// Creates an empty trace over a system of `n` processes.
    pub fn new(n: usize) -> Self {
        Trace {
            n,
            events: Vec::new(),
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Appends an event. Intended for the engine.
    pub fn push(&mut self, event: TraceEvent<V>) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent<V>] {
        &self.events
    }

    /// Iterates over the step records only, in order.
    pub fn steps(&self) -> impl Iterator<Item = &StepRecord<V>> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Step(s) => Some(s),
            TraceEvent::Crash { .. } => None,
        })
    }

    /// Number of steps taken in the run prefix.
    pub fn step_count(&self) -> u64 {
        self.steps().count() as u64
    }

    /// The failure pattern `F(·)` of this run prefix.
    pub fn failure_pattern(&self) -> FailurePattern {
        let mut fp = FailurePattern::all_correct(self.n);
        for event in &self.events {
            if let TraceEvent::Crash { pid, time, .. } = event {
                fp.record_crash(*pid, *time);
            }
        }
        fp
    }

    /// The decision of each process, if it made one in this prefix.
    pub fn decisions(&self) -> Vec<Option<V>> {
        let mut out = vec![None; self.n];
        for step in self.steps() {
            if let Some(v) = &step.decided {
                if out[step.pid.index()].is_none() {
                    out[step.pid.index()] = Some(v.clone());
                }
            }
        }
        out
    }

    /// The time at which `pid` decided, if it did.
    pub fn decision_time(&self, pid: ProcessId) -> Option<Time> {
        self.steps()
            .find(|s| s.pid == pid && s.decided.is_some())
            .map(|s| s.time)
    }

    /// Per-process view: the sequence of this process's step observations,
    /// used for the indistinguishability check of Definition 2.
    pub fn process_view(&self, pid: ProcessId) -> ProcessView {
        let mut view = ProcessView {
            pid,
            obs: Vec::new(),
            decided_at_local_step: None,
        };
        for step in self.steps().filter(|s| s.pid == pid) {
            view.obs.push(StepObservation {
                delivered: step
                    .delivered
                    .iter()
                    .map(|d| (d.src, d.payload_fp))
                    .collect(),
                fd_fp: step.fd_fp,
                state_fp: step.state_fp,
            });
            if step.decided.is_some() && view.decided_at_local_step.is_none() {
                view.decided_at_local_step = Some(view.obs.len());
            }
        }
        view
    }

    /// Extracts the replayable schedule of this run prefix: for each step,
    /// who stepped and how many of the oldest pending messages from each
    /// source were delivered.
    ///
    /// Replaying such a schedule in another configuration (e.g. the same
    /// per-partition schedule inside a *larger* system whose cross-partition
    /// messages are delayed) reproduces the same per-source delivery
    /// sequences and hence — for deterministic processes — the same state
    /// sequences. This is the executable form of the run-pasting in
    /// Lemmas 11/12.
    pub fn schedule(&self) -> Vec<ScheduleEntry> {
        let mut counts = vec![0usize; self.n];
        self.steps()
            .map(|s| {
                for d in &s.delivered {
                    counts[d.src.index()] += 1;
                }
                let per_source: Vec<(ProcessId, usize)> = counts
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| (ProcessId::new(i), std::mem::take(c)))
                    .collect();
                ScheduleEntry {
                    pid: s.pid,
                    per_source,
                }
            })
            .collect()
    }
}

/// One entry of a replayable schedule: a process steps, consuming the oldest
/// `count` pending messages from each listed source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The stepping process.
    pub pid: ProcessId,
    /// `(source, how many of its oldest pending messages to deliver)`.
    pub per_source: Vec<(ProcessId, usize)>,
}

/// What one process observed in one of its steps: delivered payloads (by
/// source), the failure-detector sample fingerprint, and the state
/// fingerprint after the step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepObservation {
    /// `(source, payload fingerprint)` pairs consumed in the step.
    pub delivered: Vec<(ProcessId, u64)>,
    /// Failure-detector sample fingerprint (if the model provides one).
    pub fd_fp: Option<u64>,
    /// State fingerprint after the step.
    pub state_fp: u64,
}

/// The projection of a trace onto one process: its sequence of step
/// observations, and the local step index at which it decided (1-based), if
/// it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessView {
    /// Whose view this is.
    pub pid: ProcessId,
    /// Per-local-step observations, in order.
    pub obs: Vec<StepObservation>,
    /// 1-based local step of the first decision, if any.
    pub decided_at_local_step: Option<usize>,
}

impl ProcessView {
    /// The observations up to and including the deciding step; the whole
    /// sequence if the process never decided in this prefix.
    ///
    /// Definition 2 compares state sequences *until decision* — a process
    /// may behave differently after deciding (e.g. keep forwarding) without
    /// breaking indistinguishability.
    pub fn until_decision(&self) -> &[StepObservation] {
        match self.decided_at_local_step {
            Some(k) => &self.obs[..k],
            None => &self.obs,
        }
    }
}

/// Assembles a [`Trace`] from the typed event stream of
/// [`crate::observe`] — the trace recorder, reworked as just one
/// [`Observer`] implementation.
///
/// Within one step the substrates emit deliveries, the detector sample,
/// the decision and the sends *before* the closing
/// [`on_step`](Observer::on_step) (see the emission contract in
/// [`crate::observe`]); the recorder buffers them and folds the step into
/// a [`StepRecord`] when the step event closes. Crash events append
/// directly.
///
/// A `Trace` is a *step-substrate* notion — its records are per-process
/// atomic steps. Attached to the round substrate (which emits
/// [`on_round`](Observer::on_round), never `on_step`), the recorder
/// therefore keeps only what a trace can faithfully hold there: the
/// **crash history**. Each round event discards that round's staged
/// message records (so memory stays bounded by one round, not the run);
/// round-level message observation belongs to purpose-built observers
/// such as [`EventCounter`](crate::observe::EventCounter).
/// [`TraceRecorder::NO_ID`] / fingerprint `0` substitute for id and
/// fingerprint fields when an event does not carry them.
#[derive(Debug, Clone)]
pub struct TraceRecorder<V> {
    trace: Trace<V>,
    delivered: Vec<DeliveredRecord>,
    sent: Vec<SendRecord>,
    fd_fp: Option<u64>,
    decided: Option<V>,
}

impl<V: Clone> TraceRecorder<V> {
    /// The message id recorded for events whose substrate tracks no ids.
    pub const NO_ID: MsgId = MsgId::new(u64::MAX);

    /// A recorder over an empty trace for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        TraceRecorder {
            trace: Trace::new(n),
            delivered: Vec::new(),
            sent: Vec::new(),
            fd_fp: None,
            decided: None,
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<V> {
        &self.trace
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_trace(self) -> Trace<V> {
        self.trace
    }
}

impl<V: Clone> Observer<V> for TraceRecorder<V> {
    fn on_deliver(&mut self, event: &DeliverEvent) {
        self.delivered.push(DeliveredRecord {
            id: event.id.unwrap_or(Self::NO_ID),
            src: event.src,
            payload_fp: event.payload_fp.unwrap_or(0),
        });
    }

    fn on_fd_sample(&mut self, event: &FdSampleEvent) {
        self.fd_fp = event.fd_fp;
    }

    fn on_decide(&mut self, event: &DecideEvent<V>) {
        self.decided = Some(event.value.clone());
    }

    fn on_send(&mut self, event: &SendEvent) {
        self.sent.push(SendRecord {
            id: event.id.unwrap_or(Self::NO_ID),
            dst: event.dst,
            payload_fp: event.payload_fp.unwrap_or(0),
            dropped: event.dropped,
        });
    }

    fn on_step(&mut self, event: &StepEvent) {
        self.trace.push(TraceEvent::Step(StepRecord {
            time: event.time,
            pid: event.pid,
            local_step: event.local_step,
            delivered: std::mem::take(&mut self.delivered),
            fd_fp: self.fd_fp.take(),
            state_fp: event.state_fp,
            decided: self.decided.take(),
            sent: std::mem::take(&mut self.sent),
        }));
    }

    fn on_round(&mut self, _event: &crate::observe::RoundEvent) {
        // Round-substrate attachment: a step-shaped trace cannot hold
        // round-granular message events, and no on_step will ever flush
        // the staging buffers — drop this round's staged records so the
        // recorder's memory is bounded by one round, never the run.
        self.delivered.clear();
        self.sent.clear();
        self.fd_fp = None;
        self.decided = None;
    }

    fn on_crash(&mut self, event: &CrashEvent) {
        self.trace.push(TraceEvent::Crash {
            pid: event.pid,
            time: event.time,
            after_step: event.after_step,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(
        time: u64,
        pid: usize,
        local: u64,
        decided: Option<u32>,
        state_fp: u64,
    ) -> TraceEvent<u32> {
        TraceEvent::Step(StepRecord {
            time: Time::new(time),
            pid: ProcessId::new(pid),
            local_step: local,
            delivered: vec![],
            fd_fp: None,
            state_fp,
            decided,
            sent: vec![],
        })
    }

    #[test]
    fn decisions_and_times() {
        let mut t = Trace::new(2);
        t.push(step(1, 0, 1, None, 10));
        t.push(step(2, 1, 1, Some(7), 20));
        t.push(step(3, 0, 2, Some(9), 11));
        assert_eq!(t.decisions(), vec![Some(9), Some(7)]);
        assert_eq!(t.decision_time(ProcessId::new(1)), Some(Time::new(2)));
        assert_eq!(t.decision_time(ProcessId::new(0)), Some(Time::new(3)));
        assert_eq!(t.step_count(), 3);
    }

    #[test]
    fn failure_pattern_from_crash_events() {
        let mut t: Trace<u32> = Trace::new(3);
        t.push(TraceEvent::Crash {
            pid: ProcessId::new(2),
            time: Time::ZERO,
            after_step: false,
        });
        t.push(step(1, 0, 1, None, 1));
        let fp = t.failure_pattern();
        assert_eq!(fp.faulty(), [ProcessId::new(2)].into());
        assert_eq!(fp.crash_time(ProcessId::new(2)), Some(Time::ZERO));
    }

    #[test]
    fn process_view_cuts_at_decision() {
        let mut t = Trace::new(1);
        t.push(step(1, 0, 1, None, 10));
        t.push(step(2, 0, 2, Some(5), 20));
        t.push(step(3, 0, 3, None, 30));
        let v = t.process_view(ProcessId::new(0));
        assert_eq!(v.obs.len(), 3);
        assert_eq!(v.decided_at_local_step, Some(2));
        assert_eq!(v.until_decision().len(), 2);
        assert_eq!(v.until_decision()[1].state_fp, 20);
    }

    #[test]
    fn process_view_whole_sequence_without_decision() {
        let mut t: Trace<u32> = Trace::new(1);
        t.push(step(1, 0, 1, None, 10));
        let v = t.process_view(ProcessId::new(0));
        assert_eq!(v.decided_at_local_step, None);
        assert_eq!(v.until_decision().len(), 1);
    }

    #[test]
    fn schedule_counts_deliveries_per_source() {
        let mut t: Trace<u32> = Trace::new(3);
        t.push(TraceEvent::Step(StepRecord {
            time: Time::new(1),
            pid: ProcessId::new(0),
            local_step: 1,
            delivered: vec![
                DeliveredRecord {
                    id: MsgId::new(0),
                    src: ProcessId::new(1),
                    payload_fp: 1,
                },
                DeliveredRecord {
                    id: MsgId::new(1),
                    src: ProcessId::new(1),
                    payload_fp: 2,
                },
                DeliveredRecord {
                    id: MsgId::new(2),
                    src: ProcessId::new(2),
                    payload_fp: 3,
                },
            ],
            fd_fp: None,
            state_fp: 0,
            decided: None,
            sent: vec![],
        }));
        let sched = t.schedule();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched[0].pid, ProcessId::new(0));
        assert_eq!(
            sched[0].per_source,
            vec![(ProcessId::new(1), 2), (ProcessId::new(2), 1)]
        );
    }
}
