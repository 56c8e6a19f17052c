//! Failure patterns and crash plans.
//!
//! Section II-C of the paper defines the *failure pattern* `F(t)` of a run
//! as the set of processes crashed by time `t`, and `F = ⋃_t F(t)` as the
//! faulty set. In `M_ASYNC` a faulty process executes only finitely many
//! steps and *may omit sending messages to a subset of receivers in its very
//! last step*.
//!
//! Two views of failures appear in the crate:
//!
//! * [`CrashPlan`] — the *prescriptive* side: what the adversary intends to
//!   do (initially-dead processes, scheduled crashes with send omission).
//! * [`FailurePattern`] — the *descriptive* side: the `F(t)` function of a
//!   produced run, extracted from its trace and consumed by failure-detector
//!   history checkers.

use std::fmt;

use crate::ids::{ProcessId, ProcessSet, Time};

/// Which of a crashing process's final-step sends are dropped.
///
/// The model allows a process that crashes during a step to omit sending to
/// an arbitrary subset of receivers ("may omit sending messages to a subset
/// of the processes in its very last step").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Omission {
    /// All sends of the final step are delivered to buffers (crash happens
    /// "after" the atomic step completes).
    #[default]
    None,
    /// No send of the final step reaches any buffer.
    All,
    /// Sends to the listed destinations are dropped; others are delivered.
    DropTo(ProcessSet),
    /// Only sends to the listed destinations are delivered; others dropped.
    KeepOnlyTo(ProcessSet),
}

impl Omission {
    /// Whether a message to `dst` emitted in the final step survives.
    pub fn delivers_to(&self, dst: ProcessId) -> bool {
        match self {
            Omission::None => true,
            Omission::All => false,
            Omission::DropTo(set) => !set.contains(dst),
            Omission::KeepOnlyTo(set) => set.contains(dst),
        }
    }
}

/// The adversary's intended failures: which processes are dead from the
/// start, and which crash later (with what send omission).
///
/// A scheduled crash at local step `s` means: the process completes `s`
/// steps in total; its `s`-th step is its last, and the omission rule
/// applies to that step's sends. Initially-dead processes take no steps at
/// all — these are the paper's *initial crashes* (Theorem 2 allows `f − 1`
/// of them; Section VI studies the initially-dead-only case).
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    initially_dead: ProcessSet,
    scheduled: Vec<(ProcessId, u64, Omission)>,
}

impl CrashPlan {
    /// A plan with no failures at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan where exactly the listed processes are dead from the start.
    pub fn initially_dead(dead: impl IntoIterator<Item = ProcessId>) -> Self {
        CrashPlan {
            initially_dead: dead.into_iter().collect(),
            scheduled: Vec::new(),
        }
    }

    /// Adds an initially-dead process. Returns `self` for chaining.
    #[must_use]
    pub fn with_initially_dead(mut self, p: ProcessId) -> Self {
        self.initially_dead.insert(p);
        self
    }

    /// Schedules `p` to crash after completing `local_steps` steps, with the
    /// given final-step omission. Returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `local_steps` is zero — a process that takes zero steps is
    /// initially dead; use [`CrashPlan::with_initially_dead`].
    #[must_use]
    pub fn with_crash_after(mut self, p: ProcessId, local_steps: u64, omission: Omission) -> Self {
        assert!(local_steps > 0, "a zero-step crash is an initial death");
        self.scheduled.push((p, local_steps, omission));
        self
    }

    /// Whether `p` is dead from the start.
    pub fn is_initially_dead(&self, p: ProcessId) -> bool {
        self.initially_dead.contains(p)
    }

    /// The set of initially-dead processes.
    pub fn initially_dead_set(&self) -> ProcessSet {
        self.initially_dead
    }

    /// The scheduled (process, local step count, omission) crash triples.
    pub fn scheduled(&self) -> &[(ProcessId, u64, Omission)] {
        &self.scheduled
    }

    /// Looks up the scheduled crash for `p`, if any.
    pub fn crash_for(&self, p: ProcessId) -> Option<(u64, &Omission)> {
        self.scheduled
            .iter()
            .find(|(q, _, _)| *q == p)
            .map(|(_, s, o)| (*s, o))
    }

    /// The set of processes that are faulty under this plan (initially dead
    /// or scheduled to crash).
    pub fn faulty(&self) -> ProcessSet {
        let mut f = self.initially_dead;
        f.extend(self.scheduled.iter().map(|(p, _, _)| *p));
        f
    }

    /// Number of faulty processes under this plan.
    pub fn num_faulty(&self) -> usize {
        self.faulty().len()
    }
}

/// The failure pattern `F(·)` of a completed run: for each process, the
/// global time at which it crashed (if it did).
///
/// `p ∈ F(t)` iff `p` takes no step at any time `> t`; for initially-dead
/// processes the crash time is `Time::ZERO`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailurePattern {
    crash_times: Vec<Option<Time>>,
}

impl FailurePattern {
    /// A pattern over `n` processes with no failures.
    pub fn all_correct(n: usize) -> Self {
        FailurePattern {
            crash_times: vec![None; n],
        }
    }

    /// Builds a pattern from explicit per-process crash times.
    pub fn from_crash_times(crash_times: Vec<Option<Time>>) -> Self {
        FailurePattern { crash_times }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.crash_times.len()
    }

    /// Marks `p` as crashed at `t` (keeps the earliest time if called twice).
    pub fn record_crash(&mut self, p: ProcessId, t: Time) {
        let slot = &mut self.crash_times[p.index()];
        match slot {
            Some(existing) if *existing <= t => {}
            _ => *slot = Some(t),
        }
    }

    /// Sets `p`'s crash time back to `t`, which an earlier
    /// [`FailurePattern::crash_time`] returned: how an undone step forgets
    /// the crash it recorded.
    pub(crate) fn restore_crash_time(&mut self, p: ProcessId, t: Option<Time>) {
        self.crash_times[p.index()] = t;
    }

    /// The crash time of `p`, if `p` is faulty.
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_times[p.index()]
    }

    /// `F(t)`: the set of processes crashed at or before `t`.
    pub fn crashed_at(&self, t: Time) -> ProcessSet {
        self.crash_times
            .iter()
            .enumerate()
            .filter_map(|(i, ct)| match ct {
                Some(c) if *c <= t => Some(ProcessId::new(i)),
                _ => None,
            })
            .collect()
    }

    /// Whether `p ∈ F(t)`.
    pub fn is_crashed(&self, p: ProcessId, t: Time) -> bool {
        matches!(self.crash_times[p.index()], Some(c) if c <= t)
    }

    /// `F = ⋃_t F(t)`: all faulty processes.
    pub fn faulty(&self) -> ProcessSet {
        self.crash_times
            .iter()
            .enumerate()
            .filter_map(|(i, ct)| ct.map(|_| ProcessId::new(i)))
            .collect()
    }

    /// `Π \ F`: the correct processes.
    pub fn correct(&self) -> ProcessSet {
        self.crash_times
            .iter()
            .enumerate()
            .filter(|&(_i, ct)| ct.is_none())
            .map(|(i, _ct)| ProcessId::new(i))
            .collect()
    }

    /// Number of faulty processes.
    pub fn num_faulty(&self) -> usize {
        self.crash_times.iter().filter(|c| c.is_some()).count()
    }

    /// Merges two patterns over the same `n`, keeping each process's
    /// earliest crash. Used by the run-pasting machinery (Lemma 11:
    /// `F_β′(t) = (F_β(t) ∩ (Π\D)) ∪ (F_α(t) ∩ D)` is expressed by first
    /// projecting each side and then merging).
    ///
    /// # Panics
    ///
    /// Panics if the patterns have different sizes.
    #[must_use]
    pub fn merged_with(&self, other: &FailurePattern) -> FailurePattern {
        assert_eq!(self.n(), other.n(), "patterns must cover the same system");
        let crash_times = self
            .crash_times
            .iter()
            .zip(&other.crash_times)
            .map(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => Some(*x.min(y)),
                (Some(x), None) => Some(*x),
                (None, Some(y)) => Some(*y),
                (None, None) => None,
            })
            .collect();
        FailurePattern { crash_times }
    }

    /// Restricts this pattern to the processes in `keep`: processes outside
    /// `keep` are reported as correct (their failures are erased). Used when
    /// pasting runs to take `F ∩ D`.
    #[must_use]
    pub fn projected_to(&self, keep: ProcessSet) -> FailurePattern {
        let crash_times = self
            .crash_times
            .iter()
            .enumerate()
            .map(|(i, ct)| {
                if keep.contains(ProcessId::new(i)) {
                    *ct
                } else {
                    None
                }
            })
            .collect();
        FailurePattern { crash_times }
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F = {{")?;
        let mut first = true;
        for (i, ct) in self.crash_times.iter().enumerate() {
            if let Some(t) = ct {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}@{}", ProcessId::new(i), t)?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn omission_variants() {
        assert!(Omission::None.delivers_to(p(0)));
        assert!(!Omission::All.delivers_to(p(0)));
        let drop: Omission = Omission::DropTo([p(1)].into());
        assert!(drop.delivers_to(p(0)));
        assert!(!drop.delivers_to(p(1)));
        let keep: Omission = Omission::KeepOnlyTo([p(1)].into());
        assert!(!keep.delivers_to(p(0)));
        assert!(keep.delivers_to(p(1)));
    }

    #[test]
    fn crash_plan_faulty_union() {
        let plan = CrashPlan::initially_dead([p(0)]).with_crash_after(p(2), 5, Omission::All);
        assert!(plan.is_initially_dead(p(0)));
        assert!(!plan.is_initially_dead(p(2)));
        assert_eq!(plan.faulty(), [p(0), p(2)].into());
        assert_eq!(plan.num_faulty(), 2);
        assert_eq!(plan.crash_for(p(2)).unwrap().0, 5);
        assert!(plan.crash_for(p(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "initial death")]
    fn crash_plan_rejects_zero_step_crash() {
        let _ = CrashPlan::none().with_crash_after(p(0), 0, Omission::None);
    }

    #[test]
    fn failure_pattern_f_of_t() {
        let mut fp = FailurePattern::all_correct(3);
        fp.record_crash(p(1), Time::new(5));
        assert!(!fp.is_crashed(p(1), Time::new(4)));
        assert!(fp.is_crashed(p(1), Time::new(5)));
        assert_eq!(fp.crashed_at(Time::new(10)), [p(1)].into());
        assert_eq!(fp.faulty(), [p(1)].into());
        assert_eq!(fp.correct(), [p(0), p(2)].into());
        assert_eq!(fp.num_faulty(), 1);
    }

    #[test]
    fn record_crash_keeps_earliest() {
        let mut fp = FailurePattern::all_correct(1);
        fp.record_crash(p(0), Time::new(9));
        fp.record_crash(p(0), Time::new(3));
        assert_eq!(fp.crash_time(p(0)), Some(Time::new(3)));
        fp.record_crash(p(0), Time::new(7));
        assert_eq!(fp.crash_time(p(0)), Some(Time::new(3)));
    }

    #[test]
    fn merge_keeps_earliest_crash() {
        let mut a = FailurePattern::all_correct(3);
        a.record_crash(p(0), Time::new(4));
        let mut b = FailurePattern::all_correct(3);
        b.record_crash(p(0), Time::new(2));
        b.record_crash(p(1), Time::new(6));
        let m = a.merged_with(&b);
        assert_eq!(m.crash_time(p(0)), Some(Time::new(2)));
        assert_eq!(m.crash_time(p(1)), Some(Time::new(6)));
        assert_eq!(m.crash_time(p(2)), None);
    }

    #[test]
    fn projection_erases_failures_outside_keep() {
        let mut fp = FailurePattern::all_correct(3);
        fp.record_crash(p(0), Time::new(1));
        fp.record_crash(p(2), Time::new(2));
        let proj = fp.projected_to([p(0), p(1)].into());
        assert_eq!(proj.faulty(), [p(0)].into());
    }

    #[test]
    fn display_mentions_crashed_processes() {
        let mut fp = FailurePattern::all_correct(2);
        fp.record_crash(p(1), Time::new(3));
        let s = fp.to_string();
        assert!(s.contains("p2"), "got {s}");
        assert!(s.contains("t3"), "got {s}");
    }
}
