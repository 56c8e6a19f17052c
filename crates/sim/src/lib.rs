//! # kset-sim — deterministic message-passing system simulator
//!
//! The execution substrate for the `kset` workspace: a faithful, executable
//! rendition of the computing model used by Biely, Robinson and Schmid in
//! *"Easy Impossibility Proofs for k-Set Agreement in Message Passing
//! Systems"* (OPODIS 2011) — the Dolev–Dwork–Stockmeyer model extended with
//! failure detectors.
//!
//! ## Model recap
//!
//! * A system `Π = {p1, …, pn}` of deterministic state machines
//!   ([`Process`]) communicating through per-process message buffers
//!   ([`Buffer`]). Sets of processes are width-generic bitsets
//!   ([`WideSet`], pinned workspace-wide as [`ProcessSet`], capacity
//!   [`ProcessSet::CAPACITY`] = 512); oversized systems are rejected at
//!   construction with a typed [`CapacityError`].
//! * A *step* of one process atomically receives a scheduler-chosen subset
//!   of its buffer, optionally queries a failure detector ([`Oracle`]),
//!   applies the transition, and sends messages ([`Effects`]).
//! * A *run* is a sequence of such steps; global time is the step index
//!   ([`Time`]). The engine records every run as a [`Trace`].
//! * Failures: initially-dead processes and mid-run crashes with
//!   final-step send omission ([`CrashPlan`], [`Omission`]); the run's
//!   failure pattern `F(·)` is a [`FailurePattern`].
//! * Admissibility conditions of concrete models are checked post-hoc
//!   ([`admissible`]), including the quantitative synchrony bounds Φ/Δ of
//!   the partially synchronous models ([`SynchronyBounds`]).
//!
//! ## Paper machinery as code
//!
//! * **Definition 1** (restriction `A|D`) — [`Restricted`],
//!   [`restricted_simulation`].
//! * **Definition 2/3** (indistinguishability, compatibility `≼_D`) —
//!   [`indist`].
//! * **Run pasting** (Lemmas 11/12) — schedule extraction
//!   ([`Trace::schedule`]) plus replay
//!   ([`sched::scripted::Scripted`]).
//!
//! ## Quickstart
//!
//! ```
//! use kset_sim::{
//!     CrashPlan, Effects, Envelope, Process, ProcessInfo, Simulation,
//!     sched::round_robin::RoundRobin,
//! };
//!
//! /// Every process broadcasts its input and decides the minimum of all
//! /// values received (n-set agreement at best, but a fine demo).
//! #[derive(Debug, Clone, Hash)]
//! struct Min {
//!     n: usize,
//!     seen: Vec<u32>,
//!     sent: bool,
//! }
//!
//! impl Process for Min {
//!     type Msg = u32;
//!     type Input = u32;
//!     type Output = u32;
//!     type Fd = ();
//!
//!     fn init(info: ProcessInfo, input: u32) -> Self {
//!         Min { n: info.n, seen: vec![input], sent: false }
//!     }
//!
//!     fn step(
//!         &mut self,
//!         delivered: &[Envelope<u32>],
//!         _fd: Option<&()>,
//!         effects: &mut Effects<u32, u32>,
//!     ) {
//!         if !self.sent {
//!             self.sent = true;
//!             effects.broadcast(self.seen[0]);
//!         }
//!         self.seen.extend(delivered.iter().map(|e| e.payload));
//!         if self.seen.len() > self.n {
//!             effects.decide(*self.seen.iter().min().unwrap());
//!         }
//!     }
//! }
//!
//! let mut sim: Simulation<Min, _> = Simulation::new(vec![3, 1, 2], CrashPlan::none());
//! let report = sim.run_to_report(&mut RoundRobin::new(), 1_000);
//! assert_eq!(report.decisions, vec![Some(1), Some(1), Some(1)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admissible;
mod buffer;
pub mod des;
mod engine;
pub mod explore;
mod failure;
mod ids;
pub mod indist;
mod message;
mod model;
pub mod observe;
mod oracle;
mod process;
mod restrict;
pub mod scenario;
pub mod sched;
pub mod sweep;
mod textfmt;
pub mod trace;

pub use buffer::Buffer;
pub use engine::{
    Engine, RunReport, RunStatus, SimEngine, SimError, Simulation, StopReason, Violation,
};
pub use failure::{CrashPlan, FailurePattern, Omission};
pub use ids::{
    CapacityError, MsgId, ProcessId, ProcessSet, ProcessSetIter, SenderMap, SubsetIter, Time,
    WideSet, WideSetIter, PSET_LIMBS,
};
pub use message::{fingerprint, stable_fingerprint, Envelope, StableHasher};
pub use model::{ModelParams, Setting, SynchronyBounds};
pub use observe::{
    BroadcastEvent, CrashEvent, DecideEvent, DeliverEvent, EventCounter, EventCounts,
    FdSampleEvent, HaltEvent, InboxEvent, NoObserver, Observer, RoundEvent, SendEvent, StepEvent,
};
pub use oracle::{FnOracle, NoOracle, Oracle};
pub use process::{Effects, Process, ProcessInfo};
pub use restrict::{
    restricted_simulation, restricted_simulation_with_oracle, restriction_plan, Restricted,
};
pub use scenario::{
    DetectorChoice, Scenario, ScenarioCrash, ScenarioError, ScenarioParseError, ScenarioProcess,
    ScenarioScheduler, ScheduleFamily,
};
pub use trace::{ProcessView, ScheduleEntry, StepObservation, Trace, TraceRecorder};
