//! The simulation engine: executes runs of an algorithm under a scheduler.
//!
//! Three execution substrates live in the workspace — this step-level
//! simulator, the discrete-event engine of [`crate::des`] and `kset-core`'s
//! lock-step round executor. All implement the [`Engine`] trait (this
//! simulator through [`SimEngine`], which pairs a [`Simulation`] with a
//! scheduler), so runners, experiment harnesses and benches can drive any
//! substrate through one API.
//!
//! [`Simulation`] holds the full configuration of the paper's model
//! (Section II): the vector of local states and the per-process message
//! buffers. Each call to [`Simulation::step`] performs one atomic step of
//! one process — receive a scheduler-chosen subset of its buffer, sample the
//! failure detector (when the model provides one), apply the deterministic
//! transition, and enqueue the emitted messages — advancing global time by
//! one, exactly as in the run definition `ρ = (C0, C1, …)`.
//!
//! Crashes come from a [`CrashPlan`]: initially-dead processes never step;
//! a scheduled crash ends the process's final step with an
//! [`Omission`](crate::failure::Omission) rule applied to that step's sends (the model's "may omit sending messages
//! to a subset of receivers in the very last step").

use std::collections::BTreeSet;

use crate::buffer::Buffer;
use crate::failure::{CrashPlan, FailurePattern};
use crate::ids::{CapacityError, MsgId, ProcessId, Time};
use crate::message::{fingerprint, Envelope};
use crate::observe::{
    CrashEvent, DecideEvent, DeliverEvent, FdSampleEvent, HaltEvent, NoObserver, Observer,
    SendEvent, StepEvent,
};
use crate::oracle::{NoOracle, Oracle};
use crate::process::{Effects, Process, ProcessInfo};
use crate::sched::{Choice, Delivery, Scheduler, SimView, Status};
use crate::trace::{Trace, TraceRecorder};

/// Errors surfaced by [`Simulation::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The selected process has already crashed (or is initially dead).
    ProcessCrashed(ProcessId),
    /// The selected process id is out of range.
    InvalidProcess(ProcessId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessCrashed(p) => write!(f, "process {p} has crashed and cannot step"),
            SimError::InvalidProcess(p) => write!(f, "process {p} does not exist"),
        }
    }
}

impl std::error::Error for SimError {}

/// A protocol violation observed during a run (recorded, not fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A process attempted to overwrite its write-once decision with a
    /// different value.
    DoubleDecision {
        /// The offending process.
        pid: ProcessId,
        /// Time of the second, conflicting decision.
        time: Time,
    },
}

/// Why [`Simulation::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process that is correct under the crash plan has decided.
    AllCorrectDecided,
    /// The scheduler returned `None`.
    SchedulerDone,
    /// The step limit was reached.
    StepLimit,
}

/// Outcome summary of [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStatus {
    /// Steps executed by this call.
    pub steps: u64,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// Complete result of a finished run prefix: decisions, failure pattern,
/// violations, and the full trace.
#[derive(Debug, Clone)]
pub struct RunReport<V> {
    /// Per-process decisions (`None` = undecided in this prefix).
    pub decisions: Vec<Option<V>>,
    /// The set of distinct decision values — the quantity bounded by
    /// k-Agreement.
    pub distinct_decisions: BTreeSet<V>,
    /// The failure pattern `F(·)` of the run.
    pub failure_pattern: FailurePattern,
    /// Protocol violations observed (write-once breaches).
    pub violations: Vec<Violation>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Total steps taken over the simulation's lifetime.
    pub steps: u64,
    /// The recorded trace.
    pub trace: Trace<V>,
}

impl<V: Clone + Ord> RunReport<V> {
    /// Whether every correct process (w.r.t. the run's failure pattern)
    /// decided.
    pub fn all_correct_decided(&self) -> bool {
        self.failure_pattern
            .correct()
            .iter()
            .all(|p| self.decisions[p.index()].is_some())
    }
}

/// A running instance of an algorithm `P` in the simulated system, with
/// failure-detector oracle `O`.
///
/// `Simulation` is `Clone` when the oracle is, which is what enables the
/// exhaustive schedule exploration of [`crate::explore`]: a configuration
/// can be forked and driven down different scheduling branches. The
/// explorer forks once, at the root, and walks the schedule tree by
/// stepping that fork in place and undoing the steps.
#[derive(Debug)]
pub struct Simulation<P: Process, O: Oracle<Sample = P::Fd>> {
    n: usize,
    procs: Vec<P>,
    statuses: Vec<Status>,
    decided: Vec<Option<P::Output>>,
    decided_flags: Vec<bool>,
    buffers: Vec<Buffer<P::Msg>>,
    oracle: O,
    crash_plan: CrashPlan,
    time: Time,
    next_msg_id: u64,
    observed: FailurePattern,
    violations: Vec<Violation>,
    recorder: TraceRecorder<P::Output>,
    /// Whether steps feed `recorder`; only the explorer's forks turn it off.
    tracing: bool,
    total_steps: u64,
}

impl<P> Simulation<P, NoOracle>
where
    P: Process<Fd = ()>,
{
    /// Creates a simulation without failure detectors (dimension 6
    /// unfavourable): each process `p_i` starts with `inputs[i]`. The
    /// process still receives `Some(&())` as its sample so that traces of
    /// oracle-less and oracle-backed executions fingerprint identically.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`]
    /// (the bitset-backed process sets cap the system size);
    /// [`Simulation::try_new`] is the fallible form.
    pub fn new(inputs: Vec<P::Input>, crash_plan: CrashPlan) -> Self {
        match Self::try_new(inputs, crash_plan) {
            Ok(sim) => sim,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_new
            Err(e) => panic!("system size {e}"),
        }
    }

    /// Creates a simulation without failure detectors, or a
    /// [`CapacityError`] if `inputs.len()` exceeds
    /// [`crate::ProcessSet::CAPACITY`].
    pub fn try_new(inputs: Vec<P::Input>, crash_plan: CrashPlan) -> Result<Self, CapacityError> {
        Self::build(inputs, NoOracle, crash_plan)
    }
}

impl<P, O> Simulation<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    /// Creates a simulation in which every step queries the given
    /// failure-detector oracle (dimension 6 favourable).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`];
    /// [`Simulation::try_with_oracle`] is the fallible form.
    pub fn with_oracle(inputs: Vec<P::Input>, oracle: O, crash_plan: CrashPlan) -> Self {
        match Self::try_with_oracle(inputs, oracle, crash_plan) {
            Ok(sim) => sim,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_with_oracle
            Err(e) => panic!("system size {e}"),
        }
    }

    /// Creates an oracle-backed simulation, or a [`CapacityError`] if
    /// `inputs.len()` exceeds [`crate::ProcessSet::CAPACITY`] — the typed
    /// form for callers (sweep grids, scenario loaders) that validate
    /// system sizes at the boundary.
    pub fn try_with_oracle(
        inputs: Vec<P::Input>,
        oracle: O,
        crash_plan: CrashPlan,
    ) -> Result<Self, CapacityError> {
        Self::build(inputs, oracle, crash_plan)
    }

    fn build(
        inputs: Vec<P::Input>,
        oracle: O,
        crash_plan: CrashPlan,
    ) -> Result<Self, CapacityError> {
        let n = inputs.len();
        if n > crate::ids::ProcessSet::CAPACITY {
            return Err(CapacityError::new(n, crate::ids::ProcessSet::CAPACITY));
        }
        let procs: Vec<P> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| P::init(ProcessInfo::new(ProcessId::new(i), n), input))
            .collect();
        let mut recorder = TraceRecorder::new(n);
        let mut statuses = vec![Status::Alive { local_steps: 0 }; n];
        let mut observed = FailurePattern::all_correct(n);
        for p in crash_plan.initially_dead_set() {
            statuses[p.index()] = Status::Crashed { at: Time::ZERO };
            observed.record_crash(p, Time::ZERO);
            recorder.on_crash(&CrashEvent {
                pid: p,
                time: Time::ZERO,
                after_step: false,
            });
        }
        Ok(Simulation {
            n,
            procs,
            statuses,
            decided: vec![None; n],
            decided_flags: vec![false; n],
            buffers: (0..n).map(|_| Buffer::new()).collect(),
            oracle,
            crash_plan,
            time: Time::ZERO,
            next_msg_id: 0,
            observed,
            violations: Vec::new(),
            recorder,
            tracing: true,
            total_steps: 0,
        })
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current global time.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Whether `pid` can still take steps.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.statuses[pid.index()].is_alive()
    }

    /// The decision of `pid`, if made.
    pub fn decision(&self, pid: ProcessId) -> Option<&P::Output> {
        self.decided[pid.index()].as_ref()
    }

    /// Per-process decisions.
    pub fn decisions(&self) -> &[Option<P::Output>] {
        &self.decided
    }

    /// The current local state of `pid` (for white-box assertions in tests).
    pub fn state(&self, pid: ProcessId) -> &P {
        &self.procs[pid.index()]
    }

    /// The pending-message buffer of `pid`.
    pub fn buffer(&self, pid: ProcessId) -> &Buffer<P::Msg> {
        &self.buffers[pid.index()]
    }

    /// The failure pattern observed so far.
    pub fn failure_pattern(&self) -> &FailurePattern {
        &self.observed
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<P::Output> {
        self.recorder.trace()
    }

    /// Discards the recorded trace and stops recording: [`Simulation::trace`]
    /// stays empty from here on, and a step builds its event payloads only
    /// for an observer that [observes events](Observer::observes_events).
    /// The exhaustive explorer turns this on for its root fork, the one
    /// configuration it steps in place and undoes: no explorer caller reads
    /// a fork's history, and an undo could not revert it.
    pub(crate) fn stop_tracing(&mut self) {
        self.recorder = TraceRecorder::new(self.n);
        self.tracing = false;
    }

    /// The crash plan driving failures.
    pub fn crash_plan(&self) -> &CrashPlan {
        &self.crash_plan
    }

    /// Whether every process that is correct under the crash plan has
    /// decided.
    pub fn all_correct_decided(&self) -> bool {
        let faulty = self.crash_plan.faulty();
        ProcessId::all(self.n)
            .filter(|p| !faulty.contains(*p))
            .all(|p| self.decided[p.index()].is_some())
    }

    /// Executes one atomic step of `pid` with the given delivery.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessCrashed`] if `pid` already crashed, and
    /// [`SimError::InvalidProcess`] if `pid` is out of range.
    pub fn step(&mut self, pid: ProcessId, delivery: Delivery) -> Result<(), SimError> {
        self.step_observed(pid, delivery, &mut NoObserver)
    }

    /// Executes one atomic step of `pid`, reporting the step's typed
    /// events — deliveries, the detector sample, a (first) decision, the
    /// sends, the closing step summary and a possible crash — to `obs`.
    ///
    /// Every step runs one step body: the unobserved [`Simulation::step`]
    /// is this method with a [`NoObserver`], monomorphized away, the
    /// exhaustive explorer's in-place steps take the same body, and the
    /// engine's own trace is assembled by an internal
    /// [`TraceRecorder`] fed from the *same* event stream, so internal and
    /// external observers can never disagree about what a step did. The
    /// events (and the fingerprints they carry) are built only when the
    /// internal recorder or `obs` consumes them.
    ///
    /// # Errors
    ///
    /// As [`Simulation::step`].
    pub fn step_observed<Ob>(
        &mut self,
        pid: ProcessId,
        delivery: Delivery,
        obs: &mut Ob,
    ) -> Result<(), SimError>
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        self.step_logged(pid, delivery, obs, &mut NoUndo)
    }

    /// As [`Simulation::step_observed`], also listing in `routed` (cleared
    /// first) the destination and id of every message the step put in a
    /// buffer, in send order; dropped sends reached no buffer and are not
    /// listed. The discrete-event engine routes exactly these messages
    /// through its latency model.
    pub(crate) fn step_routed<Ob>(
        &mut self,
        pid: ProcessId,
        delivery: Delivery,
        obs: &mut Ob,
        routed: &mut Vec<(ProcessId, MsgId)>,
    ) -> Result<(), SimError>
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        routed.clear();
        self.step_logged(pid, delivery, obs, routed)
    }

    /// Executes one step of `pid` in place and records in `log` what
    /// [`Simulation::undo`] needs to revert it. The exhaustive explorer
    /// steps, hashes and reverts a configuration this way, and steps into
    /// each fresh child again this way to expand it.
    ///
    /// The simulation must not be tracing (`stop_tracing`): an undo does
    /// not take the step's events back out of the trace.
    ///
    /// # Errors
    ///
    /// As [`Simulation::step`]; a failed step changes nothing and records
    /// nothing, so there is nothing to undo.
    pub(crate) fn step_undoable(
        &mut self,
        pid: ProcessId,
        delivery: Delivery,
        log: &mut UndoLog<P, O>,
    ) -> Result<(), SimError>
    where
        O: Clone,
    {
        debug_assert!(!self.tracing, "an undo cannot revert the trace");
        self.step_logged(pid, delivery, &mut NoObserver, log)
    }

    /// The one step body. `log` hears the pre-step configuration, every
    /// message appended and the delivered envelopes, and lends the step the
    /// buffers it receives and sends into; [`NoUndo`] ignores it all and
    /// lends fresh buffers, and compiles away, as [`NoObserver`] does for
    /// `obs`.
    fn step_logged<Ob, L>(
        &mut self,
        pid: ProcessId,
        delivery: Delivery,
        obs: &mut Ob,
        log: &mut L,
    ) -> Result<(), SimError>
    where
        Ob: Observer<P::Output> + ?Sized,
        L: StepLog<P, O>,
    {
        if pid.index() >= self.n {
            return Err(SimError::InvalidProcess(pid));
        }
        if !self.statuses[pid.index()].is_alive() {
            return Err(SimError::ProcessCrashed(pid));
        }
        log.begin(self, pid);
        self.time = self.time.next();
        self.total_steps += 1;
        let emit = self.tracing || obs.observes_events();

        // 1. Receive: move the chosen subset of the buffer out.
        let mut delivered = log.lend_delivered();
        let buf = &mut self.buffers[pid.index()];
        match delivery {
            Delivery::None => {}
            Delivery::All => buf.take_all(&mut delivered),
            Delivery::AllFrom(srcs) => buf.take_all_from(srcs, &mut delivered),
            Delivery::OldestPerSource(list) => {
                for (src, count) in list {
                    buf.take_oldest_from(src, count, &mut delivered);
                }
            }
            Delivery::Ids(ids) => buf.take_ids(&ids, &mut delivered),
        }

        // 2. Query the failure detector. In the unfavourable dimension-6
        // setting the oracle is `NoOracle` and the sample is `()` — still
        // passed as `Some` so that state/observation fingerprints do not
        // depend on how the simulation was constructed.
        let fd_sample: Option<P::Fd> = Some(self.oracle.sample(pid, self.time, &self.observed));

        // 3. Atomic transition.
        let info = ProcessInfo::new(pid, self.n);
        let mut effects = Effects::with_sends(info, log.lend_sends());
        self.procs[pid.index()].step(&delivered, fd_sample.as_ref(), &mut effects);
        let (mut sends, decision) = effects.into_parts();

        // 4. Write-once decision discipline.
        let mut decided_now = None;
        if let Some(v) = decision {
            match &self.decided[pid.index()] {
                None => {
                    self.decided[pid.index()] = Some(v.clone());
                    self.decided_flags[pid.index()] = true;
                    decided_now = Some(v);
                }
                Some(existing) if *existing == v => {}
                Some(_) => {
                    self.violations.push(Violation::DoubleDecision {
                        pid,
                        time: self.time,
                    });
                }
            }
        }

        // 5. Crash check: does this step complete the process's final step?
        let local_steps = match &mut self.statuses[pid.index()] {
            Status::Alive { local_steps } => {
                *local_steps += 1;
                *local_steps
            }
            // kset-lint: allow(panic-in-library): invariant — step() returns Err(StepError::Crashed) before reaching this match, so the arm is dead by the liveness check above
            Status::Crashed { .. } => unreachable!("liveness checked above"),
        };
        let omission = match self.crash_plan.crash_for(pid) {
            Some((s, om)) if local_steps >= s => Some(om.clone()),
            _ => None,
        };

        // 6. Send: enqueue surviving messages, record all (with drop flag).
        // A send to an out-of-range destination can never be delivered, so
        // it is recorded as dropped — traces and fingerprints must not claim
        // a delivery that never happened.
        let mut sent: Vec<SendEvent> = Vec::with_capacity(if emit { sends.len() } else { 0 });
        for (dst, payload) in sends.drain(..) {
            let id = MsgId::new(self.next_msg_id);
            self.next_msg_id += 1;
            let dropped =
                dst.index() >= self.n || omission.as_ref().is_some_and(|om| !om.delivers_to(dst));
            if emit {
                sent.push(SendEvent {
                    time: self.time,
                    src: pid,
                    dst,
                    id: Some(id),
                    payload_fp: Some(fingerprint(&payload)),
                    dropped,
                });
            }
            if !dropped {
                self.buffers[dst.index()].push(Envelope::new(id, pid, dst, self.time, payload));
                log.appended(dst, id);
            }
        }
        log.sent(sends);

        // 7. Report the step's events — to the internal trace recorder and
        // the external observer alike, in the contract order of
        // `crate::observe`: deliveries, detector sample, decision, sends,
        // the closing step summary, and the crash if this was the final
        // step. The trace is assembled from exactly this stream.
        macro_rules! emit {
            ($method:ident, $ev:expr) => {{
                let ev = $ev;
                if self.tracing {
                    self.recorder.$method(&ev);
                }
                obs.$method(&ev);
            }};
        }
        if emit {
            for env in &delivered {
                emit!(
                    on_deliver,
                    DeliverEvent {
                        time: self.time,
                        src: env.src,
                        dst: pid,
                        id: Some(env.id),
                        payload_fp: Some(env.payload_fingerprint()),
                    }
                );
            }
            emit!(
                on_fd_sample,
                FdSampleEvent {
                    time: self.time,
                    pid,
                    fd_fp: fd_sample.as_ref().map(fingerprint),
                }
            );
            if let Some(value) = decided_now {
                emit!(
                    on_decide,
                    DecideEvent {
                        time: self.time,
                        pid,
                        value,
                    }
                );
            }
            for ev in &sent {
                if self.tracing {
                    self.recorder.on_send(ev);
                }
                obs.on_send(ev);
            }
            emit!(
                on_step,
                StepEvent {
                    time: self.time,
                    pid,
                    local_step: local_steps,
                    state_fp: fingerprint(&self.procs[pid.index()]),
                    delivered: delivered.len(),
                    sent: sent.len(),
                }
            );
        }
        if omission.is_some() {
            self.statuses[pid.index()] = Status::Crashed { at: self.time };
            self.observed.record_crash(pid, self.time);
            if emit {
                emit!(
                    on_crash,
                    CrashEvent {
                        pid,
                        time: self.time,
                        after_step: true,
                    }
                );
            }
        }
        log.delivered(delivered);
        Ok(())
    }

    /// Reverts the step that [`Simulation::step_undoable`] last recorded in
    /// `log`, restoring the pre-step configuration exactly: the stepping
    /// process's local state, status, decision and crash time, the oracle,
    /// the violations, time, message ids and step count, and every buffer
    /// the step took from or appended to. Does nothing if `log` holds no
    /// step (none recorded, or already undone).
    ///
    /// The pre-step local state and oracle are swapped back in from the
    /// log's slot, which keeps the post-step ones for the next step to
    /// refresh in place: an undo frees nothing.
    pub(crate) fn undo(&mut self, log: &mut UndoLog<P, O>) {
        let (Some(saved), Some((state, oracle))) = (log.saved.take(), log.slot.as_mut()) else {
            return;
        };
        let pid = saved.pid;
        let i = pid.index();
        for dst in log.appended.drain(..).rev() {
            self.buffers[dst.index()].drop_newest_from(pid);
        }
        self.buffers[i].restore(log.delivered.drain(..));
        std::mem::swap(&mut self.procs[i], state);
        std::mem::swap(&mut self.oracle, oracle);
        self.statuses[i] = saved.status;
        if !saved.decided {
            self.decided[i] = None;
            self.decided_flags[i] = false;
        }
        self.observed.restore_crash_time(pid, saved.crash_time);
        self.violations.truncate(saved.violations);
        self.time = saved.time;
        self.next_msg_id = saved.next_msg_id;
        self.total_steps = saved.total_steps;
    }

    /// Runs under `scheduler` until every correct process decided, the
    /// scheduler stops, or `max_steps` further steps were taken.
    ///
    /// The termination policy is [`Engine::drive`]'s — this borrows `self`
    /// and the scheduler into a transient engine, so the loop exists in
    /// exactly one place.
    pub fn run<S>(&mut self, scheduler: &mut S, max_steps: u64) -> RunStatus
    where
        S: Scheduler<P::Msg> + ?Sized,
    {
        let mut engine = BorrowedSimEngine {
            sim: self,
            sched: scheduler,
            units: 0,
        };
        engine.drive(max_steps)
    }

    /// Replays to `obs` the crash events that predate any drive: the
    /// initially-dead processes, recorded at construction time. Called by
    /// [`Engine::drive_observed`] so a late-attached observer still sees
    /// the full failure pattern.
    pub fn announce_initial<Ob>(&self, obs: &mut Ob)
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        for pid in self.crash_plan.initially_dead_set() {
            obs.on_crash(&CrashEvent {
                pid,
                time: Time::ZERO,
                after_step: false,
            });
        }
    }

    /// One scheduler-driven unit: ask `scheduler` for a choice and apply it.
    /// Returns `false` when the scheduler has no further moves. A scheduler
    /// picking a crashed process still consumes the unit (adversaries built
    /// from plans may race with plan-driven crashes; they get to observe the
    /// new state on the next call).
    fn step_once<S, Ob>(&mut self, scheduler: &mut S, obs: &mut Ob) -> bool
    where
        S: Scheduler<P::Msg> + ?Sized,
        Ob: Observer<P::Output> + ?Sized,
    {
        let choice = {
            let view = SimView {
                n: self.n,
                time: self.time,
                statuses: &self.statuses,
                decided: &self.decided_flags,
                buffers: &self.buffers,
            };
            scheduler.next(&view)
        };
        let Some(Choice { pid, delivery }) = choice else {
            return false;
        };
        let _ = self.step_observed(pid, delivery, obs);
        true
    }

    /// Produces the report of the run so far (cloning the trace).
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        let decisions = self.decided.clone();
        let distinct_decisions: BTreeSet<P::Output> = decisions.iter().flatten().cloned().collect();
        RunReport {
            decisions,
            distinct_decisions,
            failure_pattern: self.observed.clone(),
            violations: self.violations.clone(),
            stop,
            steps: self.total_steps,
            trace: self.recorder.trace().clone(),
        }
    }

    /// Runs to completion under `scheduler` and returns the report.
    pub fn run_to_report<S>(&mut self, scheduler: &mut S, max_steps: u64) -> RunReport<P::Output>
    where
        S: Scheduler<P::Msg> + ?Sized,
    {
        let status = self.run(scheduler, max_steps);
        self.report(status.stop)
    }

    /// A fingerprint of the whole configuration: local states, decisions,
    /// liveness, and buffered messages. Two configurations with equal
    /// fingerprints continue identically under identical future schedules
    /// (up to hash collision), which is what the exhaustive explorer's
    /// state deduplication relies on.
    ///
    /// The value is a fixed combination of one component per process, in
    /// process order; each component covers that process's local state,
    /// liveness, decision (the value, not only whether there is one) and
    /// buffer, plus the local step count of an alive process that the crash
    /// plan will crash. The exhaustive explorer rehashes only the components
    /// a step changed and lands on this same value.
    ///
    /// Components and their combination come from one fixed-key
    /// folded-multiply hash, so the value is the same in every run of a
    /// build. It is no persisted format: a digest that must outlive a build
    /// uses [`stable_fingerprint`](crate::stable_fingerprint).
    pub fn config_fingerprint(&self) -> u64 {
        combine_fingerprints(ProcessId::all(self.n).map(|p| self.process_fingerprint(p)))
    }

    /// The configuration-fingerprint component of `pid`: its local state,
    /// liveness, decision and buffer contents, the buffer as
    /// `(src, payload)` pairs in FIFO order. While the plan's crash of `pid`
    /// is pending, also `pid`'s local step count, hashed last: that count
    /// decides when the crash strikes.
    #[inline]
    pub(crate) fn process_fingerprint(&self, pid: ProcessId) -> u64 {
        self.fingerprint_component(pid).0
    }

    /// `pid`'s fingerprint component, and the hash of its local part: the
    /// index, local state, liveness and decision that open the component,
    /// before the buffer. A `None` step of an alive process reads only that
    /// part (and its detector sample), which is what the explorer's set of
    /// inert local states keys on.
    #[inline]
    pub(crate) fn fingerprint_component(&self, pid: ProcessId) -> (u64, u64) {
        use std::hash::{Hash, Hasher};
        let i = pid.index();
        let mut h = FingerprintHasher::new();
        i.hash(&mut h);
        self.procs[i].hash(&mut h);
        self.statuses[i].is_alive().hash(&mut h);
        self.decided[i].hash(&mut h);
        let local = h.finish();
        for env in self.buffers[i].iter() {
            env.src.hash(&mut h);
            env.payload.hash(&mut h);
        }
        // Checked first so that runs without scheduled crashes pay nothing.
        if !self.crash_plan.scheduled().is_empty() {
            if let Status::Alive { local_steps } = self.statuses[i] {
                if self.crash_plan.crash_for(pid).is_some() {
                    local_steps.hash(&mut h);
                }
            }
        }
        (h.finish(), local)
    }
}

/// The hasher of configuration fingerprints, components and their
/// combination alike: a folded-multiply hash of the wyhash and foldhash
/// family. Every integer write is one little-endian word of a 128-bit
/// sponge, and a byte write is its 8-byte words plus a zero-padded tail
/// word. A full sponge `(lo, hi)` folds into the accumulator with one
/// 64×64→128-bit multiply, `acc = fold(lo ^ acc, hi ^ K)`. `finish` folds
/// in the last half-filled sponge and the number of bits absorbed, and
/// avalanches with one more fold.
///
/// Its constants are fixed, so it is no keyed PRF, and it needs none: every
/// key is a configuration the program built itself. An integer write, the
/// only kind the fingerprinted fields make, is a branch and at most one
/// multiply: small enough to inline into the `Hash` impls that feed a
/// component field by field.
struct FingerprintHasher {
    acc: u64,
    /// The first word of a half-filled sponge.
    lo: u64,
    /// Whether the sponge holds `lo` and waits for its second word.
    half: bool,
    /// The bits absorbed so far.
    bits: u64,
}

/// The first 64 bits of π's fraction, which [`FingerprintHasher`] folds
/// into every sponge's second word and the bit count.
const FOLD_KEY: u64 = 0x243f_6a88_85a3_08d3;
/// The next 64 bits: the accumulator's start.
const FOLD_SEED: u64 = 0x1319_8a2e_0370_7344;
/// The next 64 bits: the final avalanche's multiplier.
const FOLD_OUT: u64 = 0xa409_3822_299f_31d0;

/// The 128-bit product of `a` and `b`, its halves XORed together.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl FingerprintHasher {
    fn new() -> Self {
        FingerprintHasher {
            acc: FOLD_SEED,
            lo: 0,
            half: false,
            bits: 0,
        }
    }

    /// Puts `word`, of `bits` absorbed bits, into the sponge, and folds the
    /// sponge once it is full.
    #[inline(always)]
    fn absorb(&mut self, word: u64, bits: u64) {
        self.bits = self.bits.wrapping_add(bits);
        if self.half {
            self.acc = fold(self.lo ^ self.acc, word ^ FOLD_KEY);
        } else {
            self.lo = word;
        }
        self.half = !self.half;
    }
}

impl std::hash::Hasher for FingerprintHasher {
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.absorb(u64::from(x), 8);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.absorb(u64::from(x), 16);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.absorb(u64::from(x), 32);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.absorb(x, 64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.absorb(x as u64, usize::BITS.into());
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word), 8 * chunk.len() as u64);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let tail = if self.half { self.lo } else { 0 };
        fold(fold(tail ^ self.acc, self.bits ^ FOLD_KEY), FOLD_OUT)
    }
}

/// What one step tells its log, and the buffers a log lends the step.
/// [`NoUndo`], the log of every plain step, ignores it all, lends fresh
/// buffers and compiles away; the explorer's [`UndoLog`] keeps what
/// reverts the step and lends the same buffers step after step; the
/// discrete-event engine's route list ([`Simulation::step_routed`]) keeps
/// the messages it appended.
pub(crate) trait StepLog<P: Process, O: Oracle<Sample = P::Fd>> {
    /// The step of `pid` goes ahead; `sim` is still the pre-step
    /// configuration.
    fn begin(&mut self, sim: &Simulation<P, O>, pid: ProcessId);
    /// An empty buffer for the envelopes the step delivers.
    fn lend_delivered(&mut self) -> Vec<Envelope<P::Msg>> {
        Vec::new()
    }
    /// An empty buffer for the messages the step sends.
    fn lend_sends(&mut self) -> Vec<(ProcessId, P::Msg)> {
        Vec::new()
    }
    /// The step appended message `id` to `dst`'s buffer.
    fn appended(&mut self, dst: ProcessId, id: MsgId);
    /// The step is done with its send buffer, now drained.
    fn sent(&mut self, _sends: Vec<(ProcessId, P::Msg)>) {}
    /// The step is done with the envelopes it delivered.
    fn delivered(&mut self, _envs: Vec<Envelope<P::Msg>>) {}
}

/// The log of a step nobody will undo.
pub(crate) struct NoUndo;

impl<P: Process, O: Oracle<Sample = P::Fd>> StepLog<P, O> for NoUndo {
    fn begin(&mut self, _sim: &Simulation<P, O>, _pid: ProcessId) {}

    fn appended(&mut self, _dst: ProcessId, _id: MsgId) {}
}

/// The route list of a discrete-event step: `(destination, id)` of every
/// message the step appended, in send order.
impl<P: Process, O: Oracle<Sample = P::Fd>> StepLog<P, O> for Vec<(ProcessId, MsgId)> {
    fn begin(&mut self, _sim: &Simulation<P, O>, _pid: ProcessId) {}

    fn appended(&mut self, dst: ProcessId, id: MsgId) {
        self.push((dst, id));
    }
}

/// The undo log of one step: what [`Simulation::undo`] needs to put the
/// configuration back. One log is reused across steps; each
/// [`Simulation::step_undoable`] overwrites it.
///
/// A log allocates only while it warms up. Its slot holds the stepping
/// process's pre-step local state and the pre-step oracle: a step refreshes
/// the slot with [`Clone::clone_from`], which reuses the slot's heap
/// buffers when the types implement it so (see [`Process`]), and the undo
/// swaps the slot back in, so the slot then holds the post-step values and
/// their buffers for the next step. The log also lends every step the
/// buffers it receives and sends into, and keeps their capacity when the
/// step hands them back.
pub(crate) struct UndoLog<P: Process, O> {
    /// The pre-step local state and oracle of the logged step, or their
    /// post-step values once it is undone; `None` before the first step.
    slot: Option<(P, O)>,
    /// The rest of what a step changes outside the buffers, as it was
    /// before; `None` when there is nothing to undo.
    saved: Option<Saved>,
    /// The envelopes the step delivered.
    delivered: Vec<Envelope<P::Msg>>,
    /// The destination of each message the step appended, in send order.
    appended: Vec<ProcessId>,
    /// The send buffer lent to each step, empty between steps.
    sends: Vec<(ProcessId, P::Msg)>,
}

/// What a step of `pid` can change outside the buffers, the local state and
/// the oracle, as it was before.
struct Saved {
    pid: ProcessId,
    status: Status,
    /// Whether `pid` had decided. Decisions are write-once, so a step can
    /// only set a decision that was unset; this flag restores it.
    decided: bool,
    crash_time: Option<Time>,
    violations: usize,
    time: Time,
    next_msg_id: u64,
    total_steps: u64,
}

impl<P: Process, O> UndoLog<P, O> {
    /// An empty log.
    pub(crate) fn new() -> Self {
        UndoLog {
            slot: None,
            saved: None,
            delivered: Vec::new(),
            appended: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// The destination of each message the logged step appended, in send
    /// order; a destination appears once per message.
    pub(crate) fn destinations(&self) -> &[ProcessId] {
        &self.appended
    }
}

impl<P, O> StepLog<P, O> for UndoLog<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd> + Clone,
{
    fn begin(&mut self, sim: &Simulation<P, O>, pid: ProcessId) {
        let i = pid.index();
        match &mut self.slot {
            Some((state, oracle)) => {
                state.clone_from(&sim.procs[i]);
                oracle.clone_from(&sim.oracle);
            }
            slot @ None => *slot = Some((sim.procs[i].clone(), sim.oracle.clone())),
        }
        self.saved = Some(Saved {
            pid,
            status: sim.statuses[i],
            decided: sim.decided_flags[i],
            crash_time: sim.observed.crash_time(pid),
            violations: sim.violations.len(),
            time: sim.time,
            next_msg_id: sim.next_msg_id,
            total_steps: sim.total_steps,
        });
        self.appended.clear();
    }

    fn lend_delivered(&mut self) -> Vec<Envelope<P::Msg>> {
        let mut envs = std::mem::take(&mut self.delivered);
        envs.clear();
        envs
    }

    fn lend_sends(&mut self) -> Vec<(ProcessId, P::Msg)> {
        std::mem::take(&mut self.sends)
    }

    fn appended(&mut self, dst: ProcessId, _id: MsgId) {
        self.appended.push(dst);
    }

    fn sent(&mut self, sends: Vec<(ProcessId, P::Msg)>) {
        self.sends = sends;
    }

    fn delivered(&mut self, envs: Vec<Envelope<P::Msg>>) {
        self.delivered = envs;
    }
}

/// Folds per-process fingerprint components, in process order, into a
/// configuration fingerprint (see [`Simulation::config_fingerprint`]): each
/// component is one word of a [`FingerprintHasher`].
pub(crate) fn combine_fingerprints(components: impl IntoIterator<Item = u64>) -> u64 {
    use std::hash::Hasher;
    let mut h = FingerprintHasher::new();
    for c in components {
        h.write_u64(c);
    }
    h.finish()
}

impl<P, O> Clone for Simulation<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd> + Clone,
{
    fn clone(&self) -> Self {
        Simulation {
            n: self.n,
            procs: self.procs.clone(),
            statuses: self.statuses.clone(),
            decided: self.decided.clone(),
            decided_flags: self.decided_flags.clone(),
            buffers: self.buffers.clone(),
            oracle: self.oracle.clone(),
            crash_plan: self.crash_plan.clone(),
            time: self.time,
            next_msg_id: self.next_msg_id,
            observed: self.observed.clone(),
            violations: self.violations.clone(),
            recorder: self.recorder.clone(),
            tracing: self.tracing,
            total_steps: self.total_steps,
        }
    }
}

/// One execution substrate: something that advances a distributed
/// computation unit by unit and reports decisions.
///
/// The workspace has three substrates — the step-level [`Simulation`]
/// (driven through [`SimEngine`], which pairs it with a scheduler), the
/// lock-step round executor of `kset-core::sync` (its `LockStep` newtype)
/// and the discrete-event [`DesEngine`](crate::des::DesEngine). Runners,
/// the experiment harness and the benches are written against this trait
/// so any substrate plugs in.
///
/// A *unit* is the substrate's natural quantum: one process step for the
/// simulator and the discrete-event engine, one full round for the
/// lock-step executor. Each substrate has one unit body,
/// [`Engine::advance_observed`], and the trait one run loop,
/// [`Engine::drive_observed`]; the unobserved [`Engine::advance`] and
/// [`Engine::drive`] pass them a [`NoObserver`], whose no-op callbacks
/// compile away.
pub trait Engine {
    /// The decision value type.
    type Output: Clone + Ord;

    /// System size `n`.
    fn n(&self) -> usize;

    /// Executes one unit of work, reporting its typed run events to `obs`
    /// (see [`crate::observe`] for the per-substrate emission contract).
    /// Returns `false` when the substrate has no further moves (scheduler
    /// exhausted / all rounds executed / event heap drained).
    fn advance_observed<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<Self::Output> + ?Sized;

    /// Executes one unit of work unobserved: [`Engine::advance_observed`]
    /// with a [`NoObserver`].
    fn advance(&mut self) -> bool {
        self.advance_observed(&mut NoObserver)
    }

    /// Reports to `obs` the events that predate any drive (e.g. the
    /// step substrate's initially-dead crashes, recorded at construction).
    /// Called once by [`Engine::drive_observed`] before the first unit, so
    /// an observer attached late still sees the full failure pattern. The
    /// default announces nothing.
    fn announce_initial<Ob>(&self, obs: &mut Ob)
    where
        Ob: Observer<Self::Output> + ?Sized,
    {
        let _ = obs;
    }

    /// Whether the substrate reached its goal: every correct process
    /// decided (plus, for the lock-step executor, every scheduled round
    /// executed). [`Engine::drive`] maps this to
    /// [`StopReason::AllCorrectDecided`].
    fn done(&self) -> bool;

    /// Units executed over the engine's lifetime.
    fn units(&self) -> u64;

    /// Snapshot of the per-process decisions.
    fn decisions(&self) -> Vec<Option<Self::Output>>;

    /// The distinct decision values so far — the quantity k-Agreement
    /// bounds.
    fn distinct_decisions(&self) -> BTreeSet<Self::Output> {
        self.decisions().into_iter().flatten().collect()
    }

    /// Drives the engine until [`Engine::done`], the substrate runs out of
    /// moves, or `max_units` further units were executed:
    /// [`Engine::drive_observed`] with a [`NoObserver`].
    fn drive(&mut self, max_units: u64) -> RunStatus {
        self.drive_observed(max_units, &mut NoObserver)
    }

    /// Drives the engine until [`Engine::done`], the substrate runs out of
    /// moves, or `max_units` further units were executed, reporting every
    /// run event to `obs`: first [`Engine::announce_initial`], then the
    /// per-unit events of [`Engine::advance_observed`], and finally one
    /// [`Observer::on_halt`] carrying the drive's status — emitted on
    /// every exit path, so an observer can always bracket a run.
    ///
    /// This is the uniform observation entry point: the same call drives
    /// every substrate, which is what lets runners, the differential
    /// harness and the sweep workers thread one observer through any of
    /// them.
    fn drive_observed<Ob>(&mut self, max_units: u64, obs: &mut Ob) -> RunStatus
    where
        Ob: Observer<Self::Output> + ?Sized,
    {
        self.announce_initial(obs);
        let mut steps = 0;
        let status = loop {
            if self.done() {
                break RunStatus {
                    steps,
                    stop: StopReason::AllCorrectDecided,
                };
            }
            if steps >= max_units {
                break RunStatus {
                    steps,
                    stop: StopReason::StepLimit,
                };
            }
            if !self.advance_observed(obs) {
                break RunStatus {
                    steps,
                    stop: StopReason::SchedulerDone,
                };
            }
            steps += 1;
        };
        obs.on_halt(&HaltEvent {
            status,
            units: self.units(),
        });
        status
    }
}

/// Transient [`Engine`] over a *borrowed* simulation and scheduler — the
/// engine form of [`Simulation::run`], so [`Engine::drive_observed`] is
/// the only run loop in the crate.
struct BorrowedSimEngine<'a, P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    S: Scheduler<P::Msg> + ?Sized,
{
    sim: &'a mut Simulation<P, O>,
    sched: &'a mut S,
    units: u64,
}

impl<P, O, S> Engine for BorrowedSimEngine<'_, P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg> + ?Sized,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        let progressed = self.sim.step_once(self.sched, obs);
        if progressed {
            self.units += 1;
        }
        progressed
    }

    fn announce_initial<Ob>(&self, obs: &mut Ob)
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        self.sim.announce_initial(obs);
    }

    fn done(&self) -> bool {
        self.sim.all_correct_decided()
    }

    fn units(&self) -> u64 {
        self.units
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.sim.decisions().to_vec()
    }
}

/// The step-level substrate behind the [`Engine`] trait: a [`Simulation`]
/// paired with the scheduler that drives it.
///
/// # Examples
///
/// ```
/// use kset_sim::sched::round_robin::RoundRobin;
/// # use kset_sim::{CrashPlan, Effects, Envelope, Process, ProcessInfo};
/// use kset_sim::{Engine, SimEngine, Simulation, StopReason};
/// # #[derive(Debug, Clone, Hash)]
/// # struct Echo(u32, bool);
/// # impl Process for Echo {
/// #     type Msg = u32;
/// #     type Input = u32;
/// #     type Output = u32;
/// #     type Fd = ();
/// #     fn init(_info: ProcessInfo, input: u32) -> Self { Echo(input, false) }
/// #     fn step(&mut self, _d: &[Envelope<u32>], _fd: Option<&()>, e: &mut Effects<u32, u32>) {
/// #         e.decide(self.0);
/// #     }
/// # }
///
/// let sim: Simulation<Echo, _> = Simulation::new(vec![7, 7], CrashPlan::none());
/// let mut engine = SimEngine::new(sim, RoundRobin::new());
/// let status = engine.drive(100);
/// assert_eq!(status.stop, StopReason::AllCorrectDecided);
/// assert_eq!(engine.distinct_decisions().len(), 1);
/// ```
#[derive(Debug)]
pub struct SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    sim: Simulation<P, O>,
    sched: S,
    units: u64,
}

impl<P, O, S> SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg>,
{
    /// Pairs a simulation with its scheduler.
    pub fn new(sim: Simulation<P, O>, sched: S) -> Self {
        SimEngine {
            sim,
            sched,
            units: 0,
        }
    }

    /// Read access to the wrapped simulation.
    pub fn simulation(&self) -> &Simulation<P, O> {
        &self.sim
    }

    /// Unwraps the engine back into the simulation.
    pub fn into_simulation(self) -> Simulation<P, O> {
        self.sim
    }

    /// The full run report of the wrapped simulation (trace included).
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        self.sim.report(stop)
    }

    /// Drives to completion and returns the report — the [`Engine`]
    /// counterpart of [`Simulation::run_to_report`].
    pub fn drive_to_report(&mut self, max_units: u64) -> RunReport<P::Output> {
        let status = self.drive(max_units);
        self.report(status.stop)
    }
}

impl<P, O, S> Engine for SimEngine<P, O, S>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
    S: Scheduler<P::Msg>,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        let progressed = self.sim.step_once(&mut self.sched, obs);
        if progressed {
            self.units += 1;
        }
        progressed
    }

    fn announce_initial<Ob>(&self, obs: &mut Ob)
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        self.sim.announce_initial(obs);
    }

    fn done(&self) -> bool {
        self.sim.all_correct_decided()
    }

    fn units(&self) -> u64 {
        self.units
    }

    fn decisions(&self) -> Vec<Option<P::Output>> {
        self.sim.decisions().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Omission;
    use crate::ids::ProcessSet;
    use crate::process::{Effects, ProcessInfo};
    use crate::trace::TraceEvent;

    /// A toy process: broadcasts its input once, decides the minimum value
    /// it has seen once it heard from everyone alive it expects (here:
    /// simply after receiving `quorum` values including its own).
    #[derive(Debug, Clone, Hash)]
    struct MinEcho {
        info_id: usize,
        n: usize,
        quorum: usize,
        seen: Vec<u64>,
        sent: bool,
        decided: bool,
    }

    impl Process for MinEcho {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(info: ProcessInfo, input: u64) -> Self {
            MinEcho {
                info_id: info.id.index(),
                n: info.n,
                quorum: info.n,
                seen: vec![input],
                sent: false,
                decided: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u64>],
            _fd: Option<&()>,
            effects: &mut Effects<u64, u64>,
        ) {
            if !self.sent {
                self.sent = true;
                effects.broadcast(self.seen[0]);
            }
            for env in delivered {
                self.seen.push(env.payload);
            }
            if !self.decided && self.seen.len() > self.n {
                // own + n broadcast copies (incl. self-delivery).
                self.decided = true;
                effects.decide(*self.seen.iter().min().unwrap());
            }
        }
    }

    fn run_min_echo(inputs: Vec<u64>, plan: CrashPlan) -> RunReport<u64> {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(inputs, plan);
        let mut rr = crate::sched::round_robin::RoundRobin::new();
        sim.run_to_report(&mut rr, 10_000)
    }

    #[test]
    fn all_correct_processes_decide_the_minimum() {
        let report = run_min_echo(vec![5, 3, 9], CrashPlan::none());
        assert!(report.all_correct_decided());
        assert_eq!(report.distinct_decisions.len(), 1);
        assert_eq!(report.decisions, vec![Some(3), Some(3), Some(3)]);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn initially_dead_process_never_steps() {
        let plan = CrashPlan::initially_dead([ProcessId::new(2)]);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], plan);
        assert!(!sim.is_alive(ProcessId::new(2)));
        let err = sim.step(ProcessId::new(2), Delivery::All).unwrap_err();
        assert_eq!(err, SimError::ProcessCrashed(ProcessId::new(2)));
        // The quorum of n values can never be reached: p3's input is lost.
        let mut rr = crate::sched::round_robin::RoundRobin::new();
        let status = sim.run(&mut rr, 500);
        assert_eq!(status.stop, StopReason::StepLimit);
        let report = sim.report(status.stop);
        assert_eq!(report.failure_pattern.faulty(), [ProcessId::new(2)].into());
    }

    #[test]
    fn scheduled_crash_applies_send_omission() {
        // p1 crashes after its first step, dropping all of its broadcast.
        let plan = CrashPlan::none().with_crash_after(ProcessId::new(0), 1, Omission::All);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert!(!sim.is_alive(ProcessId::new(0)));
        // Nothing of p1's broadcast reached any buffer.
        for p in ProcessId::all(3) {
            assert_eq!(
                sim.buffer(p).len(),
                0,
                "dropped broadcast must not be buffered"
            );
        }
        let fp = sim.failure_pattern();
        assert_eq!(fp.crash_time(ProcessId::new(0)), Some(Time::new(1)));
    }

    #[test]
    fn scheduled_crash_partial_omission() {
        // p1 crashes in its first step but its message to p2 survives.
        let keep: Omission = Omission::KeepOnlyTo([ProcessId::new(1)].into());
        let plan = CrashPlan::none().with_crash_after(ProcessId::new(0), 1, keep);
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(sim.buffer(ProcessId::new(1)).len(), 1);
        assert_eq!(sim.buffer(ProcessId::new(2)).len(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the ProcessSet capacity")]
    fn oversized_system_rejected_at_construction() {
        // The 128-process cap must fail fast at the system boundary, not
        // deep inside a set operation mid-run.
        let _: Simulation<MinEcho, NoOracle> = Simulation::new(
            vec![0; crate::ids::ProcessSet::CAPACITY + 1],
            CrashPlan::none(),
        );
    }

    #[test]
    fn capacity_sized_system_is_accepted() {
        let sim: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![0; crate::ids::ProcessSet::CAPACITY], CrashPlan::none());
        assert_eq!(sim.n(), crate::ids::ProcessSet::CAPACITY);
    }

    #[test]
    fn oversized_system_is_a_typed_error_on_try_new() {
        let cap = crate::ids::ProcessSet::CAPACITY;
        let err = Simulation::<MinEcho, NoOracle>::try_new(vec![0; cap + 1], CrashPlan::none())
            .unwrap_err();
        assert_eq!(err.requested(), cap + 1);
        assert_eq!(err.capacity(), cap);
        assert!(
            Simulation::<MinEcho, NoOracle>::try_new(vec![0; cap], CrashPlan::none()).is_ok(),
            "exactly-at-capacity systems construct"
        );
    }

    #[test]
    fn invalid_process_is_an_error() {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1], CrashPlan::none());
        let err = sim.step(ProcessId::new(5), Delivery::All).unwrap_err();
        assert_eq!(err, SimError::InvalidProcess(ProcessId::new(5)));
    }

    #[test]
    fn trace_records_steps_and_decisions() {
        let report = run_min_echo(vec![4, 4], CrashPlan::none());
        assert!(report.trace.step_count() > 0);
        let decisions = report.trace.decisions();
        assert_eq!(decisions, vec![Some(4), Some(4)]);
        assert_eq!(report.distinct_decisions.len(), 1);
    }

    #[test]
    fn time_advances_one_per_step() {
        let mut sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        assert_eq!(sim.time(), Time::ZERO);
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(sim.time(), Time::new(1));
        sim.step(ProcessId::new(1), Delivery::None).unwrap();
        assert_eq!(sim.time(), Time::new(2));
    }

    /// A misbehaving process that decides a different value every step.
    #[derive(Debug, Clone, Hash)]
    struct FlipFlop {
        step: u64,
    }

    impl Process for FlipFlop {
        type Msg = u8;
        type Input = ();
        type Output = u64;
        type Fd = ();

        fn init(_info: ProcessInfo, _input: ()) -> Self {
            FlipFlop { step: 0 }
        }

        fn step(
            &mut self,
            _delivered: &[Envelope<u8>],
            _fd: Option<&()>,
            effects: &mut Effects<u8, u64>,
        ) {
            self.step += 1;
            effects.decide(self.step);
        }
    }

    #[test]
    fn double_decision_is_recorded_not_fatal() {
        let mut sim: Simulation<FlipFlop, NoOracle> = Simulation::new(vec![()], CrashPlan::none());
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        let report = sim.report(StopReason::SchedulerDone);
        // First decision wins; each later conflicting decide is recorded.
        assert_eq!(report.decisions, vec![Some(1)]);
        assert_eq!(report.violations.len(), 2);
        assert!(matches!(
            report.violations[0],
            Violation::DoubleDecision { time, .. } if time == Time::new(2)
        ));
    }

    #[test]
    fn config_fingerprint_tracks_configuration() {
        let mut a: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        let b: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        assert_eq!(
            a.config_fingerprint(),
            b.config_fingerprint(),
            "equal initials"
        );
        a.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_ne!(a.config_fingerprint(), b.config_fingerprint(), "diverged");
        // Order-insensitive confluence: stepping p1 then p2 with no
        // deliveries equals stepping p2 then p1 (states and buffers agree).
        let mut x: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        let mut y: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        x.step(ProcessId::new(0), Delivery::None).unwrap();
        x.step(ProcessId::new(1), Delivery::None).unwrap();
        y.step(ProcessId::new(1), Delivery::None).unwrap();
        y.step(ProcessId::new(0), Delivery::None).unwrap();
        assert_eq!(x.config_fingerprint(), y.config_fingerprint());
    }

    #[test]
    fn cloned_simulation_diverges_independently() {
        let mut a: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![1, 2, 3], CrashPlan::none());
        a.step(ProcessId::new(0), Delivery::None).unwrap();
        let mut b = a.clone();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        b.step(ProcessId::new(1), Delivery::All).unwrap();
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(a.time(), Time::new(1));
        assert_eq!(b.time(), Time::new(2));
    }

    #[test]
    fn untraced_fork_steps_like_its_traced_original() {
        // The explorer's forks record nothing, yet must reach exactly the
        // configuration a traced run reaches — through a scheduled crash
        // with send omission and partial per-source deliveries.
        let p = ProcessId::new;
        let keep: Omission = Omission::KeepOnlyTo([p(2)].into());
        let plan = CrashPlan::none().with_crash_after(p(0), 1, keep);
        let fresh =
            || -> Simulation<MinEcho, NoOracle> { Simulation::new(vec![4, 1, 7], plan.clone()) };
        let steps = [
            (p(1), Delivery::None),
            (p(2), Delivery::None),
            // p1's final step: it hears p2 but not p3, and only p3 gets
            // its broadcast.
            (p(0), Delivery::AllFrom([p(1)].into())),
            (p(2), Delivery::AllFrom([p(0)].into())),
            (p(2), Delivery::All),
        ];
        let mut reference = fresh();
        for (pid, delivery) in &steps {
            reference.step(*pid, delivery.clone()).unwrap();
        }
        // Fork after the first step, so the fork drops a non-empty trace.
        let mut original = fresh();
        original.step(p(1), Delivery::None).unwrap();
        let mut fork = original.clone();
        fork.stop_tracing();
        assert!(fork.trace().events().is_empty());
        for (pid, delivery) in &steps[1..] {
            original.step(*pid, delivery.clone()).unwrap();
            fork.step(*pid, delivery.clone()).unwrap();
        }
        assert!(!fork.is_alive(p(0)), "the scheduled crash struck");
        assert_eq!(fork.buffer(p(1)).len(), 2, "p1's broadcast skipped p2");
        assert_eq!(fork.failure_pattern(), original.failure_pattern());
        assert_eq!(fork.config_fingerprint(), original.config_fingerprint());
        assert_eq!(fork.decisions(), original.decisions());
        assert_eq!(fork.decision(p(2)), Some(&1));
        for q in ProcessId::all(3) {
            assert!(
                fork.buffer(q).iter().eq(original.buffer(q).iter()),
                "buffer of {q}"
            );
        }
        assert!(fork.trace().events().is_empty());
        assert_eq!(original.trace().step_count(), steps.len() as u64);
        assert_eq!(original.trace().events(), reference.trace().events());
    }

    #[test]
    fn sim_engine_matches_direct_run() {
        // The Engine-driven execution must be step-for-step identical to
        // Simulation::run under the same scheduler.
        let mut direct: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let status = direct.run(&mut crate::sched::round_robin::RoundRobin::new(), 10_000);

        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let engine_status = engine.drive(10_000);

        assert_eq!(status, engine_status);
        assert_eq!(engine.units(), status.steps);
        assert_eq!(Engine::n(&engine), 3);
        assert!(engine.done());
        assert_eq!(engine.decisions(), direct.decisions().to_vec());
        assert_eq!(engine.distinct_decisions().len(), 1);
        let report = engine.report(engine_status.stop);
        assert_eq!(report.decisions, direct.report(status.stop).decisions);
        assert_eq!(
            engine.into_simulation().config_fingerprint(),
            direct.config_fingerprint()
        );
    }

    #[test]
    fn sim_engine_reports_scheduler_exhaustion() {
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2], CrashPlan::none());
        // A scheduler with no moves at all.
        let empty = |_: &SimView<'_, u64>| -> Option<Choice> { None };
        let mut engine = SimEngine::new(sim, empty);
        let status = engine.drive(100);
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert_eq!(status.steps, 0);
        assert!(!engine.done());
    }

    /// A process that sends one message past the end of the system.
    #[derive(Debug, Clone, Hash)]
    struct SendsOutOfRange;

    impl Process for SendsOutOfRange {
        type Msg = u8;
        type Input = ();
        type Output = u8;
        type Fd = ();

        fn init(_info: ProcessInfo, _input: ()) -> Self {
            SendsOutOfRange
        }

        fn step(
            &mut self,
            _delivered: &[Envelope<u8>],
            _fd: Option<&()>,
            effects: &mut Effects<u8, u8>,
        ) {
            effects.send(ProcessId::new(9), 1); // no such process
            effects.send(ProcessId::new(0), 2); // in range
        }
    }

    #[test]
    fn out_of_range_send_is_recorded_as_dropped() {
        // Regression: sends to destinations outside the system were
        // discarded but recorded with `dropped: false`, so traces claimed a
        // delivery that never happened.
        let mut sim: Simulation<SendsOutOfRange, NoOracle> =
            Simulation::new(vec![(), ()], CrashPlan::none());
        sim.step(ProcessId::new(0), Delivery::None).unwrap();
        let step = match &sim.trace().events()[0] {
            TraceEvent::Step(s) => s,
            other => panic!("expected a step record, got {other:?}"),
        };
        assert_eq!(step.sent.len(), 2, "both sends are recorded");
        let oob = &step.sent[0];
        assert_eq!(oob.dst, ProcessId::new(9));
        assert!(oob.dropped, "an undeliverable send must be marked dropped");
        let ok = &step.sent[1];
        assert_eq!(ok.dst, ProcessId::new(0));
        assert!(!ok.dropped);
        // The in-range message really is buffered; nothing else is.
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 1);
        assert_eq!(sim.buffer(ProcessId::new(1)).len(), 0);
    }

    #[test]
    fn external_trace_recorder_reproduces_internal_trace() {
        // The engine's own trace is one Observer impl fed from the same
        // event stream as any external observer — so an externally
        // attached TraceRecorder must assemble the *identical* trace,
        // crash events, drop flags and fingerprints included.
        let plan = CrashPlan::initially_dead([ProcessId::new(2)]).with_crash_after(
            ProcessId::new(0),
            2,
            Omission::All,
        );
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9, 7], plan);
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut external = TraceRecorder::new(4);
        engine.drive_observed(500, &mut external);
        assert_eq!(
            external.trace().events(),
            engine.simulation().trace().events()
        );
        assert_eq!(
            external.trace().failure_pattern(),
            *engine.simulation().failure_pattern()
        );
    }

    #[test]
    fn drive_observed_matches_drive_and_emits_halt() {
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![5, 3, 9], CrashPlan::none());
        let mut plain = SimEngine::new(sim.clone(), crate::sched::round_robin::RoundRobin::new());
        let plain_status = plain.drive(10_000);

        let mut observed = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut counter: crate::observe::EventCounter<u64> = crate::observe::EventCounter::new();
        let observed_status = observed.drive_observed(10_000, &mut counter);

        assert_eq!(plain_status, observed_status);
        assert_eq!(plain.decisions(), observed.decisions());
        let counts = counter.counts();
        assert_eq!(counts.halts, 1);
        assert_eq!(counts.steps, observed_status.steps);
        assert_eq!(counts.decides, 3);
        assert_eq!(counts.fd_samples, counts.steps, "one sample per step");
        assert_eq!(
            counts.transmitted(),
            counts.delivers,
            "a crash-free run delivers every transmitted message"
        );
        assert_eq!(
            counter.decisions_by_process().values().copied().min(),
            Some(3)
        );
    }

    #[test]
    fn initially_dead_crashes_are_announced_to_late_observers() {
        // Initial deaths happen at construction, before any observer can
        // attach; drive_observed replays them so the observer still sees
        // the full failure pattern.
        let plan = CrashPlan::initially_dead([ProcessId::new(0), ProcessId::new(2)]);
        let sim: Simulation<MinEcho, NoOracle> = Simulation::new(vec![1, 2, 3], plan);
        let mut engine = SimEngine::new(sim, crate::sched::round_robin::RoundRobin::new());
        let mut counter: crate::observe::EventCounter<u64> = crate::observe::EventCounter::new();
        engine.drive_observed(50, &mut counter);
        assert_eq!(counter.counts().crashes, 2);
    }

    /// A process whose every step folds in what it receives and its
    /// detector sample, then sends zero to three messages (to itself, twice
    /// to one process, or past the end of the system) and sometimes decides
    /// 0 or 1, so a second, different decision records a violation.
    #[derive(Debug, Clone, Hash)]
    struct Churn {
        n: usize,
        acc: u64,
    }

    impl Process for Churn {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = u64;

        fn init(info: ProcessInfo, input: u64) -> Self {
            Churn {
                n: info.n,
                acc: input,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u64>],
            fd: Option<&u64>,
            effects: &mut Effects<u64, u64>,
        ) {
            let mut acc = self.acc ^ fd.copied().unwrap_or(0).rotate_left(17);
            for env in delivered {
                acc = acc.rotate_left(7) ^ env.payload ^ ((env.src.index() as u64) << 40);
            }
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (acc >> 29);
            self.acc = acc;
            for k in 0..acc % 4 {
                let dst = (acc >> (8 * k + 8)) % (self.n as u64 + 1);
                effects.send(ProcessId::new(dst as usize), acc >> k);
            }
            if acc.is_multiple_of(3) {
                effects.decide((acc >> 3) % 2);
            }
        }
    }

    /// Asserts that two configurations agree on everything a step changes.
    fn assert_same<O>(a: &Simulation<Churn, O>, b: &Simulation<Churn, O>, what: &str)
    where
        O: Oracle<Sample = u64>,
    {
        assert_eq!(a.config_fingerprint(), b.config_fingerprint(), "{what}");
        assert_eq!(a.time, b.time, "{what}: time");
        assert_eq!(a.next_msg_id, b.next_msg_id, "{what}: next message id");
        assert_eq!(a.total_steps, b.total_steps, "{what}: step count");
        assert_eq!(a.observed, b.observed, "{what}: failure pattern");
        assert_eq!(a.statuses, b.statuses, "{what}: statuses");
        assert_eq!(a.decided, b.decided, "{what}: decisions");
        assert_eq!(a.decided_flags, b.decided_flags, "{what}: decision flags");
        assert_eq!(a.violations, b.violations, "{what}: violations");
        for q in ProcessId::all(a.n) {
            assert_eq!(a.buffer(q).len(), b.buffer(q).len(), "{what}: {q}");
            assert!(a.buffer(q).iter().eq(b.buffer(q).iter()), "{what}: {q}");
        }
    }

    /// What the seeded undo runs must have exercised at least once.
    #[derive(Debug, Default)]
    struct Covered {
        /// Each `Delivery` variant, in declaration order, used with at least
        /// one message taken (`None` just used).
        delivered: [bool; 5],
        ids_out_of_order: bool,
        crash_all: bool,
        crash_keep_only: bool,
        violation: bool,
        self_send: bool,
        same_dst_twice: bool,
    }

    /// A random delivery for `pid` in `sim`; returns its variant index.
    fn random_delivery<O>(
        sim: &Simulation<Churn, O>,
        pid: ProcessId,
        rng: &mut rand::rngs::StdRng,
    ) -> (usize, Delivery)
    where
        O: Oracle<Sample = u64>,
    {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let buf = sim.buffer(pid);
        let sources: Vec<ProcessId> = buf.sources().iter().collect();
        let kind = rng.gen_range(0..5usize);
        let delivery = match kind {
            0 => Delivery::None,
            1 => Delivery::All,
            2 => Delivery::AllFrom(
                sources
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.6))
                    .collect(),
            ),
            3 => {
                let mut list: Vec<(ProcessId, usize)> = sources
                    .iter()
                    .map(|&q| (q, rng.gen_range(0..=buf.pending_from(q) + 1)))
                    .collect();
                list.shuffle(rng);
                Delivery::OldestPerSource(list)
            }
            _ => {
                let mut ids: Vec<MsgId> = buf
                    .pending_ids()
                    .into_iter()
                    .filter(|_| rng.gen_bool(0.7))
                    .collect();
                ids.shuffle(rng);
                if rng.gen_bool(0.2) {
                    ids.push(MsgId::new(u64::MAX)); // not pending: skipped
                }
                Delivery::Ids(ids)
            }
        };
        (kind, delivery)
    }

    /// Drives `sim` through random steps. Each step is taken in place with
    /// an undo log and compared with `clone()` + `step()`; the undo must
    /// restore the parent, and stepping again must land on the same child,
    /// which also checks that the oracle was restored.
    fn undo_round_trips<O>(
        mut sim: Simulation<Churn, O>,
        steps: usize,
        rng: &mut rand::rngs::StdRng,
        covered: &mut Covered,
    ) where
        O: Oracle<Sample = u64> + Clone,
    {
        use rand::Rng;
        sim.stop_tracing();
        let mut log = UndoLog::new();
        for _ in 0..steps {
            let alive: Vec<ProcessId> =
                ProcessId::all(sim.n).filter(|&q| sim.is_alive(q)).collect();
            if alive.is_empty() {
                return;
            }
            let pid = alive[rng.gen_range(0..alive.len())];
            let (kind, delivery) = random_delivery(&sim, pid, rng);
            let parent = sim.clone();
            let mut expected = sim.clone();
            expected.step(pid, delivery.clone()).unwrap();
            sim.step_undoable(pid, delivery.clone(), &mut log).unwrap();
            assert_same(&sim, &expected, "step in place vs clone + step");

            let taken = parent.buffer(pid).len()
                + log.destinations().iter().filter(|&&d| d == pid).count()
                - sim.buffer(pid).len();
            covered.delivered[kind] |= kind == 0 || taken > 0;
            if let Delivery::Ids(ids) = &delivery {
                covered.ids_out_of_order |= taken > 1 && ids.windows(2).any(|w| w[0] > w[1]);
            }
            if !sim.is_alive(pid) {
                match sim.crash_plan().crash_for(pid) {
                    Some((_, Omission::All)) => covered.crash_all = true,
                    Some((_, Omission::KeepOnlyTo(_))) => covered.crash_keep_only = true,
                    _ => {}
                }
            }
            covered.violation |= sim.violations.len() > parent.violations.len();
            covered.self_send |= log.destinations().contains(&pid);
            covered.same_dst_twice |= log
                .destinations()
                .iter()
                .enumerate()
                .any(|(i, d)| log.destinations()[..i].contains(d));

            sim.undo(&mut log);
            assert_same(&sim, &parent, "undo restores the parent");
            sim.step(pid, delivery).unwrap();
            assert_same(&sim, &expected, "stepping again after the undo");
        }
    }

    #[test]
    fn undo_restores_the_parent_and_in_place_steps_match_forks() {
        use rand::{Rng, SeedableRng};
        let p = ProcessId::new;
        let mut covered = Covered::default();
        for seed in 0..150u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..=5usize);
            let mut plan = CrashPlan::none();
            if rng.gen_bool(0.5) {
                plan = plan.with_crash_after(p(0), rng.gen_range(1..=4u64), Omission::All);
            }
            if rng.gen_bool(0.5) {
                let keep: ProcessSet = ProcessId::all(n).filter(|_| rng.gen_bool(0.5)).collect();
                plan = plan.with_crash_after(
                    p(1),
                    rng.gen_range(1..=4u64),
                    Omission::KeepOnlyTo(keep),
                );
            }
            if n > 3 && rng.gen_bool(0.3) {
                plan = plan.with_initially_dead(p(n - 1));
            }
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000u64)).collect();
            // A stateful detector: each sample depends on how many came before.
            let mut calls = 0u64;
            let oracle =
                crate::oracle::FnOracle::new(move |q: ProcessId, t: Time, fp: &FailurePattern| {
                    calls += 1;
                    calls * 1_000 + q.index() as u64 * 10 + t.raw() % 7 + fp.num_faulty() as u64
                });
            let sim: Simulation<Churn, _> = Simulation::with_oracle(inputs, oracle, plan);
            undo_round_trips(sim, 40, &mut rng, &mut covered);
        }
        assert!(covered.delivered.iter().all(|&c| c), "{covered:?}");
        assert!(covered.ids_out_of_order, "{covered:?}");
        assert!(covered.crash_all && covered.crash_keep_only, "{covered:?}");
        assert!(covered.violation, "{covered:?}");
        assert!(covered.self_send && covered.same_dst_twice, "{covered:?}");
    }

    /// A fingerprint component as documented, each field fed on its own into
    /// a fresh fingerprint hasher: the index, the local state, liveness and
    /// the decision, each buffered `(src, payload)`, and the local step
    /// count while a planned crash is pending.
    fn reference_component<P, O>(sim: &Simulation<P, O>, pid: ProcessId) -> u64
    where
        P: Process,
        P::Fd: std::hash::Hash,
        O: Oracle<Sample = P::Fd>,
    {
        use std::hash::{Hash, Hasher};
        let i = pid.index();
        let mut h = FingerprintHasher::new();
        i.hash(&mut h);
        sim.procs[i].hash(&mut h);
        sim.is_alive(pid).hash(&mut h);
        sim.decision(pid).hash(&mut h);
        for env in sim.buffer(pid).iter() {
            env.src.hash(&mut h);
            env.payload.hash(&mut h);
        }
        if let Status::Alive { local_steps } = sim.statuses[i] {
            if sim.crash_plan().crash_for(pid).is_some() {
                local_steps.hash(&mut h);
            }
        }
        h.finish()
    }

    fn assert_components_match_reference<P, O>(sim: &Simulation<P, O>, what: &str)
    where
        P: Process,
        P::Fd: std::hash::Hash,
        O: Oracle<Sample = P::Fd>,
    {
        for q in ProcessId::all(sim.n) {
            assert_eq!(
                sim.process_fingerprint(q),
                reference_component(sim, q),
                "{what}: {q}"
            );
        }
    }

    #[test]
    fn fingerprint_components_hash_field_by_field() {
        use rand::{Rng, SeedableRng};
        let p = ProcessId::new;
        // Seeded Churn runs, with and without planned crashes.
        for seed in 0..60u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..=5usize);
            let mut plan = CrashPlan::none();
            if seed % 2 == 1 {
                plan = plan
                    .with_crash_after(p(0), rng.gen_range(1..=4u64), Omission::All)
                    .with_crash_after(
                        p(1),
                        rng.gen_range(1..=4u64),
                        Omission::KeepOnlyTo([p(0)].into()),
                    );
            }
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000u64)).collect();
            let oracle =
                crate::oracle::FnOracle::new(|q: ProcessId, t: Time, _: &FailurePattern| {
                    q.index() as u64 + t.raw()
                });
            let mut sim: Simulation<Churn, _> = Simulation::with_oracle(inputs, oracle, plan);
            assert_components_match_reference(&sim, "initial");
            for step in 0..30 {
                let alive: Vec<ProcessId> =
                    ProcessId::all(n).filter(|&q| sim.is_alive(q)).collect();
                if alive.is_empty() {
                    break;
                }
                let pid = alive[rng.gen_range(0..alive.len())];
                let (_, delivery) = random_delivery(&sim, pid, &mut rng);
                sim.step(pid, delivery).unwrap();
                assert_components_match_reference(&sim, &format!("seed {seed}, step {step}"));
            }
        }
        // Long components: n = 64, every broadcast pending, so each buffer
        // holds 64 messages.
        let mut wide: Simulation<MinEcho, NoOracle> =
            Simulation::new((0..64).collect(), CrashPlan::none());
        for q in ProcessId::all(64) {
            wide.step(q, Delivery::None).unwrap();
        }
        assert_eq!(wide.buffer(p(0)).len(), 64);
        assert_components_match_reference(&wide, "n = 64");
    }

    #[test]
    fn fingerprint_hasher_reads_bytes_as_words_and_counts_bits() {
        use std::hash::Hasher;
        let hash = |write: &dyn Fn(&mut FingerprintHasher)| {
            let mut h = FingerprintHasher::new();
            write(&mut h);
            h.finish()
        };
        let x = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(
            hash(&|h| h.write(&x.to_le_bytes())),
            hash(&|h| h.write_u64(x))
        );
        // Equal words, unequal bit counts.
        assert_ne!(hash(&|h| h.write(&[1])), hash(&|h| h.write(&[1, 0])));
        assert_ne!(hash(&|h| h.write_u8(1)), hash(&|h| h.write_u64(1)));
    }

    #[test]
    fn delivery_variants_consume_expected_messages() {
        let mut sim: Simulation<MinEcho, NoOracle> =
            Simulation::new(vec![1, 2, 3], CrashPlan::none());
        // Everyone broadcasts in their first step.
        for p in ProcessId::all(3) {
            sim.step(p, Delivery::None).unwrap();
        }
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 3);
        // Deliver only p2's message to p1.
        sim.step(
            ProcessId::new(0),
            Delivery::AllFrom([ProcessId::new(1)].into()),
        )
        .unwrap();
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 2);
        // Deliver oldest 1 from p3.
        sim.step(
            ProcessId::new(0),
            Delivery::OldestPerSource(vec![(ProcessId::new(2), 1)]),
        )
        .unwrap();
        assert_eq!(sim.buffer(ProcessId::new(0)).len(), 1);
    }
}
