//! [`DesEngine`]: the discrete-event engine over a [`Simulation`].
//!
//! This file is an *observer home*: it is the one place (beside
//! `engine.rs` and `kset-core`'s `sync.rs`) allowed to call the raw step
//! drivers — every process step flows through
//! [`Simulation::step_routed`], the [`Simulation::step_observed`] step
//! body plus the list of messages the step buffered, so the unified event
//! stream is emitted here and nowhere rebuilt.

use super::component::{CrashSchedule, DetectorCadence, LinkFabric, ProcClock};
use super::heap::{EventHeap, Wake};
use super::{Latency, VirtualTime};
use crate::engine::{Engine, RunReport, Simulation, StopReason};
use crate::ids::{MsgId, ProcessId, ProcessSet};
use crate::observe::{CrashEvent, Observer};
use crate::oracle::Oracle;
use crate::process::Process;
use crate::sched::Delivery;

/// The discrete-event virtual-time substrate: a [`Simulation`] driven by
/// a heap of timed wake-ups instead of a unit scheduler.
///
/// See the [module docs](super) for the architecture. Like
/// [`SimEngine`](crate::SimEngine) it implements [`Engine`], so
/// `drive`/`drive_observed` and every runner work unchanged; a *unit* is
/// one process step (bookkeeping wake-ups — fabric releases, crash
/// strikes, cadence pulses — are free, which is exactly the idle-skip
/// advantage on sparse schedules).
///
/// # Examples
///
/// ```
/// use kset_sim::des::{DesEngine, Latency};
/// # use kset_sim::{CrashPlan, Effects, Envelope, Process, ProcessInfo};
/// use kset_sim::{Engine, Simulation, StopReason};
/// # #[derive(Debug, Clone, Hash)]
/// # struct Echo(u32);
/// # impl Process for Echo {
/// #     type Msg = u32;
/// #     type Input = u32;
/// #     type Output = u32;
/// #     type Fd = ();
/// #     fn init(_info: ProcessInfo, input: u32) -> Self { Echo(input) }
/// #     fn step(&mut self, _d: &[Envelope<u32>], _fd: Option<&()>, e: &mut Effects<u32, u32>) {
/// #         e.decide(self.0);
/// #     }
/// # }
///
/// let sim: Simulation<Echo, _> = Simulation::new(vec![7, 7], CrashPlan::none());
/// let mut engine = DesEngine::timed(sim, Latency::uniform(1, 4), 0, 42);
/// let status = engine.drive(100);
/// assert_eq!(status.stop, StopReason::AllCorrectDecided);
/// assert_eq!(engine.distinct_decisions().len(), 1);
/// ```
#[derive(Debug)]
pub struct DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
{
    sim: Simulation<P, O>,
    heap: EventHeap,
    now: VirtualTime,
    units: u64,
    primed: bool,
    latency: Latency,
    gst: u64,
    seed: u64,
    /// One wake-up agenda per process.
    clocks: Vec<ProcClock>,
    fabric: LinkFabric,
    crashes: CrashSchedule,
    cadence: Option<DetectorCadence>,
    /// Message ids released by the fabric, awaiting the destination's
    /// next step.
    ready: Vec<Vec<MsgId>>,
    /// Timed crashes that have already struck.
    struck: ProcessSet,
    /// The crash plan's faulty processes ∪ every scheduled timed crash —
    /// the processes [`Engine::done`] does not wait for (as the step
    /// substrate counts plan-scheduled crashes out from the start).
    faulty: ProcessSet,
    /// The messages one step put in buffers, reused across steps.
    sends: Vec<(ProcessId, MsgId)>,
}

impl<P, O> DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    /// Arrival-driven timed execution: messages take
    /// `max(send, gst) + draw` ticks, with `draw` the seeded per-link
    /// [`Latency::draw`]. Alive processes take their first step at `t = 1`
    /// (in process order) and afterwards wake exactly when messages
    /// arrive (plus any [`DesEngine::with_detector_cadence`] pulses).
    ///
    /// `latency` is normalized to a well-formed model (`1 ≤ lo ≤ hi`);
    /// see [`Latency::is_well_formed`] for why zero-latency links are
    /// ruled out.
    pub fn timed(sim: Simulation<P, O>, latency: Latency, gst: u64, seed: u64) -> Self {
        let n = sim.n();
        let faulty = sim.crash_plan().faulty();
        DesEngine {
            sim,
            heap: EventHeap::default(),
            now: VirtualTime::ZERO,
            units: 0,
            primed: false,
            latency: latency.normalized(),
            gst,
            seed,
            clocks: vec![ProcClock::default(); n],
            fabric: LinkFabric::default(),
            crashes: CrashSchedule::default(),
            cadence: None,
            ready: vec![Vec::new(); n],
            struck: ProcessSet::new(),
            faulty,
            sends: Vec::new(),
        }
    }

    /// Schedules a timed crash: `pid` takes no step at or after `at`
    /// (crash-stop — its earlier sends still arrive). Same-instant ties
    /// resolve crash-first. No-op for out-of-range pids.
    pub fn schedule_crash(&mut self, pid: ProcessId, at: VirtualTime) {
        if pid.index() < self.sim.n() {
            self.crashes.schedule(at, pid);
            self.faulty.insert(pid);
            self.heap.push(at, Wake::Crashes);
        }
    }

    /// Builder form of [`DesEngine::schedule_crash`].
    #[must_use]
    pub fn with_crash_at(mut self, pid: ProcessId, at: VirtualTime) -> Self {
        self.schedule_crash(pid, at);
        self
    }

    /// Enables the failure-detector cadence: every `period` ticks
    /// (normalized to ≥ 1), every alive undecided process is woken for a
    /// detector-sampling step even if no message arrived.
    #[must_use]
    pub fn with_detector_cadence(mut self, period: u64) -> Self {
        let cadence = DetectorCadence::new(period);
        if self.primed {
            if let Some(at) = cadence.next_wake() {
                self.heap.push(at, Wake::Cadence);
            }
        }
        self.cadence = Some(cadence);
        self
    }

    /// Read access to the wrapped simulation.
    pub fn simulation(&self) -> &Simulation<P, O> {
        &self.sim
    }

    /// Unwraps the engine back into the simulation.
    pub fn into_simulation(self) -> Simulation<P, O> {
        self.sim
    }

    /// The current virtual-clock reading (the time of the last live
    /// wake-up).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The full run report of the wrapped simulation (trace included).
    ///
    /// Timed crashes are scheduling state of *this* engine, not of the
    /// simulation's crash plan, so they appear in the event stream (as
    /// crash events) but not in the report's failure pattern.
    pub fn report(&self, stop: StopReason) -> RunReport<P::Output> {
        self.sim.report(stop)
    }

    /// Drives to completion and returns the report — the [`Engine`]
    /// counterpart of [`Simulation::run_to_report`].
    pub fn drive_to_report(&mut self, max_units: u64) -> RunReport<P::Output> {
        let status = self.drive(max_units);
        self.report(status.stop)
    }

    /// Seeds the heap before the first wake-up: crash strikes first (so
    /// they win same-instant ties), then the cadence, then one wake per
    /// alive process at `t = 1` in process order — the sequence-number
    /// order the first wave pops in.
    fn prime(&mut self) {
        self.primed = true;
        if let Some(at) = self.crashes.next_wake() {
            self.heap.push(at, Wake::Crashes);
        }
        if let Some(at) = self.cadence.as_ref().and_then(DetectorCadence::next_wake) {
            self.heap.push(at, Wake::Cadence);
        }
        let at = VirtualTime::new(1);
        for (i, clock) in self.clocks.iter_mut().enumerate() {
            let pid = ProcessId::new(i);
            if self.sim.is_alive(pid) {
                clock.wake_at(at);
                self.heap.push(at, Wake::Process(pid));
            }
        }
    }

    /// The next instant the part that `wake` names wants to be woken at.
    fn next_wake(&self, wake: Wake) -> Option<VirtualTime> {
        match wake {
            Wake::Process(pid) => self.clocks[pid.index()].next_wake(),
            Wake::Fabric => self.fabric.next_wake(),
            Wake::Crashes => self.crashes.next_wake(),
            Wake::Cadence => self.cadence.as_ref().and_then(DetectorCadence::next_wake),
        }
    }

    /// Pushes the part's own next wake-up, if it has one. Wake-ups caused
    /// by another part push their own entries at cause time.
    fn requeue(&mut self, wake: Wake) {
        if let Some(at) = self.next_wake(wake) {
            self.heap.push(at, wake);
        }
    }

    /// Pops heap entries until one yields a process step; returns `false`
    /// when the heap drains — the substrate is out of moves.
    ///
    /// An entry whose time is no longer its part's next wake-up is stale
    /// and skipped (lazy deletion). A live entry sets the clock, takes
    /// what is due from its part, requeues the part's next wake-up, and
    /// then acts on it: a process steps (the only wake-up that counts as
    /// a unit), the fabric releases its arrivals, the crash schedule
    /// strikes, the cadence pulses.
    fn dispatch<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        if !self.primed {
            self.prime();
        }
        while let Some((now, _seq, wake)) = self.heap.pop() {
            if self.next_wake(wake) != Some(now) {
                continue;
            }
            self.now = now;
            match wake {
                Wake::Process(pid) => {
                    self.clocks[pid.index()].take_due(now);
                    self.requeue(wake);
                    if self.struck.contains(pid) || !self.sim.is_alive(pid) {
                        continue;
                    }
                    // Drained rather than taken, so the ready list keeps
                    // its capacity for the next arrivals.
                    let ids = self.ready[pid.index()].drain(..).collect();
                    if self
                        .sim
                        .step_routed(pid, Delivery::Ids(ids), obs, &mut self.sends)
                        .is_err()
                    {
                        continue;
                    }
                    // The adversary parks pre-GST messages until
                    // stabilization, then the link draws its delay.
                    let depart = VirtualTime::new(now.raw().max(self.gst));
                    for &(dst, id) in &self.sends {
                        let at = depart.plus(self.latency.draw(self.seed, pid, dst, id.raw()));
                        if self.fabric.route(at, dst, id) {
                            self.heap.push(at, Wake::Fabric);
                        }
                    }
                    return true;
                }
                Wake::Fabric => {
                    let arrivals = self.fabric.release();
                    self.requeue(wake);
                    for (dst, id) in arrivals {
                        // A message reaching a crashed process vanishes.
                        if self.struck.contains(dst) || !self.sim.is_alive(dst) {
                            continue;
                        }
                        self.ready[dst.index()].push(id);
                        if self.clocks[dst.index()].wake_at(now) {
                            self.heap.push(now, Wake::Process(dst));
                        }
                    }
                }
                Wake::Crashes => {
                    let due = self.crashes.strike(now);
                    self.requeue(wake);
                    for pid in due {
                        if self.struck.contains(pid) || !self.sim.is_alive(pid) {
                            continue;
                        }
                        self.struck.insert(pid);
                        self.ready[pid.index()].clear();
                        self.clocks[pid.index()].retire();
                        obs.on_crash(&CrashEvent {
                            pid,
                            time: self.sim.time(),
                            after_step: true,
                        });
                    }
                }
                Wake::Cadence => {
                    if let Some(cadence) = self.cadence.as_mut() {
                        cadence.pulse(now);
                    }
                    self.requeue(wake);
                    let mut woke = false;
                    for (i, clock) in self.clocks.iter_mut().enumerate() {
                        let pid = ProcessId::new(i);
                        if self.struck.contains(pid)
                            || !self.sim.is_alive(pid)
                            || self.sim.decision(pid).is_some()
                        {
                            continue;
                        }
                        if clock.wake_at(now) {
                            self.heap.push(now, Wake::Process(pid));
                        }
                        woke = true;
                    }
                    if !woke {
                        // Nobody left to sample: let the heap drain. The
                        // alive-undecided set only shrinks, so this is
                        // final.
                        if let Some(cadence) = self.cadence.as_mut() {
                            cadence.retire();
                        }
                    }
                }
            }
        }
        false
    }
}

impl<P, O> Engine for DesEngine<P, O>
where
    P: Process,
    O: Oracle<Sample = P::Fd>,
    P::Fd: std::hash::Hash,
{
    type Output = P::Output;

    fn n(&self) -> usize {
        self.sim.n()
    }

    fn advance_observed<Ob>(&mut self, obs: &mut Ob) -> bool
    where
        Ob: Observer<P::Output> + ?Sized,
    {
        let progressed = self.dispatch(obs);
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
        ProcessId::all(self.sim.n())
            .filter(|p| !self.faulty.contains(*p))
            .all(|p| self.sim.decision(p).is_some())
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
    use crate::failure::CrashPlan;
    use crate::ids::Time;
    use crate::observe::EventCounter;
    use crate::process::{Effects, ProcessInfo};
    use crate::Envelope;
    use std::collections::BTreeSet;

    /// Broadcasts its input on the first step, then decides the minimum
    /// once it has seen values from all `n` processes.
    #[derive(Debug, Clone, Hash)]
    struct MinFlood {
        n: usize,
        seen: BTreeSet<u32>,
        sent: bool,
    }

    impl Process for MinFlood {
        type Msg = u32;
        type Input = u32;
        type Output = u32;
        type Fd = ();

        fn init(info: ProcessInfo, input: u32) -> Self {
            MinFlood {
                n: info.n,
                seen: BTreeSet::from([input]),
                sent: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u32>],
            _fd: Option<&()>,
            effects: &mut Effects<u32, u32>,
        ) {
            if !self.sent {
                self.sent = true;
                let mine = *self.seen.iter().next().unwrap();
                effects.broadcast(mine);
            }
            self.seen.extend(delivered.iter().map(|e| e.payload));
            if self.seen.len() >= self.n {
                effects.decide(*self.seen.iter().next().unwrap());
            }
        }
    }

    fn inputs(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| i * 10 + 3).collect()
    }

    #[test]
    fn timed_mode_decides_and_skips_idle_time() {
        let n = 6;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::uniform(10, 1_000), 0, 7);
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        assert_eq!(engine.distinct_decisions().len(), 1);
        // Arrival-driven: the unit count is bounded by steps actually
        // needed (first wave + at most one step per arrival — broadcast
        // includes self, so n·n arrivals), never by the huge latency span
        // the virtual clock jumped over.
        assert!(
            engine.units() <= (n * (n + 1)) as u64,
            "sparse schedule must not burn idle units: {}",
            engine.units()
        );
        assert!(
            engine.now() >= VirtualTime::new(10),
            "virtual time advanced past the minimum latency"
        );
    }

    #[test]
    fn fixed_latency_crash_free_runs_walk_the_round_cadence() {
        let n = 4;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(5), 0, 1);
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        // All round-1 broadcasts are sent at t=1 and arrive together at
        // t=6; every process then steps once with its full inbox and
        // decides: exactly two steps per process.
        assert_eq!(engine.units(), 2 * n as u64);
        assert_eq!(engine.now(), VirtualTime::new(6));
    }

    #[test]
    fn timed_crash_stops_steps_but_earlier_sends_still_arrive() {
        let n = 4;
        let victim = ProcessId::new(0);
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        // The victim broadcasts at t=1 and is struck at t=2 — before any
        // arrival (lo = 5) can wake it again.
        let mut engine = DesEngine::timed(sim, Latency::fixed(5), 0, 3)
            .with_crash_at(victim, VirtualTime::new(2));
        let mut counter: EventCounter<u32> = EventCounter::new();
        let status = engine.drive_observed(10_000, &mut counter);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        let decisions = engine.decisions();
        assert!(decisions[0].is_none(), "the victim crashed undecided");
        assert!(
            decisions[1..].iter().all(|d| d.is_some()),
            "the victim's t=1 broadcast still reached everyone: {decisions:?}"
        );
        assert_eq!(counter.counts().crashes, 1, "the strike is observable");
        assert_eq!(counter.counts().decides, (n - 1) as u64);
    }

    #[test]
    fn same_instant_crash_beats_the_first_step() {
        let n = 3;
        let victim = ProcessId::new(2);
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(2), 0, 3)
            .with_crash_at(victim, VirtualTime::new(1));
        let status = engine.drive(10_000);
        // The victim never broadcast, so nobody collects n values.
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert!(engine.decisions().iter().all(|d| d.is_none()));
        assert!(
            engine
                .simulation()
                .trace()
                .schedule()
                .iter()
                .all(|e| e.pid != victim),
            "a same-instant crash must precede the victim's first step"
        );
    }

    #[test]
    fn gst_parks_early_sends_until_stabilization() {
        let n = 3;
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(1), 50, 9);
        let status = engine.drive(10_000);
        assert_eq!(status.stop, StopReason::AllCorrectDecided);
        // t=1 broadcasts are parked until GST: arrivals at 50 + 1.
        assert_eq!(engine.now(), VirtualTime::new(51));
    }

    #[test]
    fn detector_cadence_wakes_quiet_processes_and_retires() {
        /// Never sends; decides after three detector samples.
        #[derive(Debug, Clone, Hash)]
        struct Quiet(u64);
        impl Process for Quiet {
            type Msg = u32;
            type Input = u32;
            type Output = u32;
            type Fd = ();
            fn init(_info: ProcessInfo, _input: u32) -> Self {
                Quiet(0)
            }
            fn step(
                &mut self,
                _d: &[Envelope<u32>],
                _fd: Option<&()>,
                effects: &mut Effects<u32, u32>,
            ) {
                self.0 += 1;
                if self.0 >= 3 {
                    effects.decide(1);
                }
            }
        }
        let sim: Simulation<Quiet, _> = Simulation::new(vec![0, 0], CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::fixed(1), 0, 5).with_detector_cadence(4);
        let status = engine.drive(1_000);
        assert_eq!(
            status.stop,
            StopReason::AllCorrectDecided,
            "without arrivals only the cadence provides liveness"
        );
        // Step 1 at t=1, then pulses at t=4 and t=8.
        assert_eq!(engine.now(), VirtualTime::new(8));
        // After everyone decided the cadence retires and the heap drains.
        assert!(!engine.advance(), "a drained heap is out of moves");
    }

    #[test]
    fn initially_dead_processes_never_wake() {
        let n = 4;
        let sim: Simulation<MinFlood, _> =
            Simulation::new(inputs(n), CrashPlan::initially_dead([ProcessId::new(3)]));
        let mut engine = DesEngine::timed(sim, Latency::fixed(2), 0, 11);
        let status = engine.drive(10_000);
        // Three broadcasts only: nobody sees 4 values, nobody decides —
        // and the dead process takes no step at all.
        assert_eq!(status.stop, StopReason::SchedulerDone);
        assert!(engine
            .simulation()
            .trace()
            .schedule()
            .iter()
            .all(|e| e.pid.index() != 3));
    }

    #[test]
    fn announce_initial_replays_initial_deaths() {
        let sim: Simulation<MinFlood, _> =
            Simulation::new(inputs(3), CrashPlan::initially_dead([ProcessId::new(1)]));
        let mut engine = DesEngine::timed(sim, Latency::fixed(1), 0, 0);
        let mut counter: EventCounter<u32> = EventCounter::new();
        engine.drive_observed(100, &mut counter);
        assert_eq!(counter.counts().crashes, 1);
        assert_eq!(counter.counts().halts, 1);
        assert_eq!(counter.counts().steps, engine.units());
    }

    #[test]
    fn report_time_is_step_time_not_virtual_time() {
        let sim: Simulation<MinFlood, _> = Simulation::new(inputs(3), CrashPlan::none());
        let mut engine = DesEngine::timed(sim, Latency::uniform(100, 200), 0, 2);
        let status = engine.drive(1_000);
        let report = engine.report(status.stop);
        assert_eq!(report.steps, engine.units());
        assert_eq!(engine.simulation().time(), Time::new(report.steps));
        assert!(engine.now().raw() >= 100, "virtual clock outran step time");
    }
}
