//! The process abstraction: deterministic state machines with write-once
//! outputs.
//!
//! Section II of the paper models every process as a deterministic state
//! machine whose local state incorporates an input value `x_p` and a
//! write-once output value `y_p` (initially `⊥`). A *step* atomically takes
//! the current local state, a (possibly empty) subset of buffered messages,
//! and — when failure detectors are available — a failure-detector value,
//! and produces a new local state; a deterministic message sending function
//! determines the messages emitted by the step.
//!
//! [`Process`] captures exactly that interface: [`Process::step`] receives
//! the delivered envelopes and the optional failure-detector sample and
//! records sends/broadcasts/decisions through [`Effects`]. The `Hash` bound
//! supplies state fingerprints for the indistinguishability machinery
//! (Definition 2); determinism is the implementor's obligation (no interior
//! randomness, no wall-clock access).

use std::fmt;
use std::hash::Hash;

use crate::ids::{ProcessId, ProcessSet};
use crate::message::Envelope;

/// Static information a process learns at initialization: its own identity
/// and the system size `n = |Π|`.
///
/// Note that under *restriction* (Definition 1 of the paper) the restricted
/// algorithm still uses the full-system `n`, even though the live subsystem
/// `D` may be much smaller — `ProcessInfo` therefore always carries the
/// original `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessInfo {
    /// This process's identifier.
    pub id: ProcessId,
    /// The system size `|Π|` the algorithm was designed for.
    pub n: usize,
}

impl ProcessInfo {
    /// Creates process info.
    pub fn new(id: ProcessId, n: usize) -> Self {
        ProcessInfo { id, n }
    }

    /// Iterates over all process ids of the system.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> {
        ProcessId::all(self.n)
    }

    /// Iterates over all process ids except this process.
    pub fn others(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let me = self.id;
        ProcessId::all(self.n).filter(move |p| *p != me)
    }
}

/// A deterministic message-passing state machine.
///
/// Implementations must be *deterministic*: given the same sequence of
/// delivered message payloads and failure-detector samples, `step` must
/// drive the state through the same sequence of values. The engine checks
/// the write-once discipline of decisions and records violations.
///
/// The `Hash` supertrait provides the state fingerprint recorded in traces
/// and compared by the indistinguishability checker; `Clone` enables
/// snapshotting configurations.
///
/// The exhaustive explorer ([`crate::explore`]) snapshots the stepping
/// process before every step it may undo, into a slot it keeps per depth,
/// with [`Clone::clone_from`]. A state that owns heap buffers (a `Vec`, a
/// [`SenderMap`](crate::SenderMap)) should override `clone_from` to copy
/// into the slot's buffers: a derived `Clone` stays correct, but its
/// `clone_from` allocates a fresh copy on every snapshot and frees the old
/// one.
pub trait Process: Clone + fmt::Debug + Hash + 'static {
    /// The message payload type of the algorithm.
    type Msg: Clone + fmt::Debug + PartialEq + Hash + 'static;
    /// The proposal/input type (`x_p`).
    type Input: Clone + fmt::Debug;
    /// The decision/output type (`y_p`).
    type Output: Clone + fmt::Debug + Eq + Ord + Hash + 'static;
    /// The failure-detector sample type; use `()` when the model has no
    /// failure detectors (the "unfavourable" setting of dimension 6).
    type Fd: Clone + fmt::Debug;

    /// Constructs the initial state of a process with the given identity and
    /// proposal value. All other state components must be fixed values
    /// (Section II: "all other components of the local state are initialized
    /// to some fixed value").
    fn init(info: ProcessInfo, input: Self::Input) -> Self;

    /// Executes one atomic step: consume the delivered messages (possibly
    /// none) and the failure-detector sample (if the model provides one),
    /// update the local state, and record sends and an optional decision in
    /// `effects`.
    fn step(
        &mut self,
        delivered: &[Envelope<Self::Msg>],
        fd: Option<&Self::Fd>,
        effects: &mut Effects<Self::Msg, Self::Output>,
    );
}

/// Collector for the outputs of a single step: messages to send and an
/// optional decision.
///
/// The engine turns recorded sends into buffered envelopes after the step
/// completes, which models the paper's atomic receive/compute/send step.
/// Whether a *broadcast* is atomic with respect to crashes is a property of
/// the failure model, not of this type: a crashing process may have a subset
/// of its final step's sends dropped (see [`crate::failure::Omission`]).
#[derive(Debug)]
pub struct Effects<M, V> {
    info: ProcessInfo,
    sends: Vec<(ProcessId, M)>,
    decision: Option<V>,
}

impl<M: Clone, V> Effects<M, V> {
    /// Creates an empty effects collector for the given process.
    pub fn new(info: ProcessInfo) -> Self {
        Self::with_sends(info, Vec::new())
    }

    /// An empty collector that records its sends into `sends` (cleared
    /// first), so a caller can hand the same allocation to step after step.
    pub(crate) fn with_sends(info: ProcessInfo, mut sends: Vec<(ProcessId, M)>) -> Self {
        sends.clear();
        Effects {
            info,
            sends,
            decision: None,
        }
    }

    /// Records a point-to-point send.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Records a send of `msg` to every process in the system, **including
    /// the sender itself** (self-delivery goes through the buffer and may be
    /// delayed, as in the FLP model).
    pub fn broadcast(&mut self, msg: M) {
        for p in ProcessId::all(self.info.n) {
            self.sends.push((p, msg.clone()));
        }
    }

    /// Records a send of `msg` to every process except the sender.
    pub fn broadcast_others(&mut self, msg: M) {
        let me = self.info.id;
        for p in ProcessId::all(self.info.n).filter(|p| *p != me) {
            self.sends.push((p, msg.clone()));
        }
    }

    /// Records a send of `msg` to every process in `targets`.
    pub fn multicast(&mut self, targets: ProcessSet, msg: M) {
        for p in targets {
            self.sends.push((p, msg.clone()));
        }
    }

    /// Records the (write-once) decision of this step.
    ///
    /// The engine enforces the write-once discipline: a second decision with
    /// the same value is ignored; a second decision with a *different* value
    /// is recorded as a protocol violation in the run report. Algorithm code
    /// may therefore call this defensively.
    pub fn decide(&mut self, value: V) {
        if self.decision.is_none() {
            self.decision = Some(value);
        }
    }

    /// Whether a decision was recorded during this step.
    pub fn has_decision(&self) -> bool {
        self.decision.is_some()
    }

    /// The identity/system info of the stepping process.
    pub fn info(&self) -> ProcessInfo {
        self.info
    }

    /// Consumes the collector, returning the recorded sends and decision.
    pub fn into_parts(self) -> (Vec<(ProcessId, M)>, Option<V>) {
        (self.sends, self.decision)
    }

    /// Read-only view of the sends recorded so far.
    pub fn sends(&self) -> &[(ProcessId, M)] {
        &self.sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Eff = Effects<u32, u32>;

    fn info(id: usize, n: usize) -> ProcessInfo {
        ProcessInfo::new(ProcessId::new(id), n)
    }

    #[test]
    fn broadcast_reaches_all_including_self() {
        let mut e = Eff::new(info(1, 4));
        e.broadcast(7);
        let (sends, _) = e.into_parts();
        let dests: Vec<_> = sends.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(dests, vec![0, 1, 2, 3]);
    }

    #[test]
    fn broadcast_others_excludes_self() {
        let mut e = Eff::new(info(1, 4));
        e.broadcast_others(7);
        let (sends, _) = e.into_parts();
        let dests: Vec<_> = sends.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(dests, vec![0, 2, 3]);
    }

    #[test]
    fn multicast_targets_only_listed() {
        let mut e = Eff::new(info(0, 5));
        let targets: ProcessSet = [ProcessId::new(2), ProcessId::new(4)].into();
        e.multicast(targets, 9);
        let (sends, _) = e.into_parts();
        assert_eq!(sends.len(), 2);
    }

    #[test]
    fn decide_is_write_once_within_a_step() {
        let mut e = Eff::new(info(0, 3));
        assert!(!e.has_decision());
        e.decide(1);
        e.decide(2);
        let (_, decision) = e.into_parts();
        assert_eq!(decision, Some(1), "first decision wins");
    }

    #[test]
    fn process_info_others_excludes_self() {
        let i = info(2, 4);
        let others: Vec<_> = i.others().map(|p| p.index()).collect();
        assert_eq!(others, vec![0, 1, 3]);
        assert_eq!(i.peers().count(), 4);
    }
}
