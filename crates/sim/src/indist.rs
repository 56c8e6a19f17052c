//! Indistinguishability of runs (Definitions 2 and 3 of the paper).
//!
//! Two runs α, β are *indistinguishable until decision* for a process `p`
//! (`α ~ β` for `p`) if `p` goes through the same sequence of states in both
//! until it decides; `α D∼ β` when this holds for every `p ∈ D`. A set of
//! runs `R′` is *compatible* with `R` for `D` (`R′ ≼_D R`) if every `α ∈ R′`
//! has some `β ∈ R` with `α D∼ β`.
//!
//! The simulator compares *state fingerprints* recorded in traces. The
//! comparison is exact up to 64-bit hash collision, which is more than
//! enough for the constructive checks in this crate (we use
//! indistinguishability as a *verification oracle* on runs we constructed to
//! be indistinguishable, so a collision could only mask a bug, never create
//! a spurious impossibility).

use crate::ids::{ProcessId, ProcessSet};
use crate::trace::Trace;

/// How the per-process comparison turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewComparison {
    /// Same observation sequence until the decision point (both decided at
    /// the same local step with identical prior states).
    EqualUntilDecision,
    /// Neither view decided; the shorter observation sequence is a prefix
    /// of the longer. For finite prefixes of infinite runs this is the best
    /// verifiable approximation of Definition 2.
    UndecidedPrefix,
    /// The views diverge (different states, deliveries, or decision points).
    Divergent,
}

impl ViewComparison {
    /// Whether the comparison supports indistinguishability.
    pub fn is_indistinguishable(self) -> bool {
        !matches!(self, ViewComparison::Divergent)
    }
}

/// Compares the views of `pid` in two traces per Definition 2.
pub fn compare_views<V: Clone>(a: &Trace<V>, b: &Trace<V>, pid: ProcessId) -> ViewComparison {
    let va = a.process_view(pid);
    let vb = b.process_view(pid);
    match (va.decided_at_local_step, vb.decided_at_local_step) {
        (Some(ka), Some(kb)) => {
            if ka == kb && va.obs[..ka] == vb.obs[..kb] {
                ViewComparison::EqualUntilDecision
            } else {
                ViewComparison::Divergent
            }
        }
        (None, None) => {
            let k = va.obs.len().min(vb.obs.len());
            if va.obs[..k] == vb.obs[..k] {
                ViewComparison::UndecidedPrefix
            } else {
                ViewComparison::Divergent
            }
        }
        // One decided, the other did not: the undecided view must contain
        // the decided view's pre-decision sequence as a prefix — then the
        // undecided run simply has not reached the decision point yet — or
        // the decided view's sequence extends the undecided one.
        (Some(ka), None) => prefix_compare(&va.obs[..ka], &vb.obs),
        (None, Some(kb)) => prefix_compare(&vb.obs[..kb], &va.obs),
    }
}

fn prefix_compare<T: PartialEq>(decided: &[T], undecided: &[T]) -> ViewComparison {
    let k = decided.len().min(undecided.len());
    if decided[..k] == undecided[..k] {
        ViewComparison::UndecidedPrefix
    } else {
        ViewComparison::Divergent
    }
}

/// Definition 2: `α D∼ β` — indistinguishable (until decision) for every
/// process in `D`.
pub fn indistinguishable_for_set<V: Clone>(a: &Trace<V>, b: &Trace<V>, d: ProcessSet) -> bool {
    d.iter()
        .all(|p| compare_views(a, b, p).is_indistinguishable())
}

/// Definition 3: `R′ ≼_D R` — every run of `runs_prime` has an
/// indistinguishable (for `D`) counterpart in `runs`.
pub fn compatible<V: Clone>(runs_prime: &[Trace<V>], runs: &[Trace<V>], d: ProcessSet) -> bool {
    runs_prime.iter().all(|alpha| {
        runs.iter()
            .any(|beta| indistinguishable_for_set(alpha, beta, d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Time;
    use crate::trace::{StepRecord, TraceEvent};

    fn step(pid: usize, local: u64, state_fp: u64, decided: Option<u32>) -> TraceEvent<u32> {
        TraceEvent::Step(StepRecord {
            time: Time::new(local),
            pid: ProcessId::new(pid),
            local_step: local,
            delivered: vec![],
            fd_fp: None,
            state_fp,
            decided,
            sent: vec![],
        })
    }

    fn trace(events: Vec<TraceEvent<u32>>) -> Trace<u32> {
        let mut t = Trace::new(2);
        for e in events {
            t.push(e);
        }
        t
    }

    #[test]
    fn identical_decided_views_are_equal() {
        let a = trace(vec![step(0, 1, 10, None), step(0, 2, 20, Some(1))]);
        let b = trace(vec![step(0, 1, 10, None), step(0, 2, 20, Some(1))]);
        assert_eq!(
            compare_views(&a, &b, ProcessId::new(0)),
            ViewComparison::EqualUntilDecision
        );
    }

    #[test]
    fn post_decision_divergence_is_ignored() {
        // Same states until decision; different states afterwards.
        let a = trace(vec![step(0, 1, 10, Some(1)), step(0, 2, 77, None)]);
        let b = trace(vec![step(0, 1, 10, Some(1)), step(0, 2, 88, None)]);
        assert_eq!(
            compare_views(&a, &b, ProcessId::new(0)),
            ViewComparison::EqualUntilDecision
        );
    }

    #[test]
    fn different_pre_decision_states_diverge() {
        let a = trace(vec![step(0, 1, 10, None), step(0, 2, 20, Some(1))]);
        let b = trace(vec![step(0, 1, 11, None), step(0, 2, 20, Some(1))]);
        assert_eq!(
            compare_views(&a, &b, ProcessId::new(0)),
            ViewComparison::Divergent
        );
    }

    #[test]
    fn undecided_prefix_is_compatible() {
        let a = trace(vec![step(0, 1, 10, None)]);
        let b = trace(vec![step(0, 1, 10, None), step(0, 2, 20, None)]);
        assert_eq!(
            compare_views(&a, &b, ProcessId::new(0)),
            ViewComparison::UndecidedPrefix
        );
        assert!(compare_views(&a, &b, ProcessId::new(0)).is_indistinguishable());
    }

    #[test]
    fn decided_vs_undecided_prefix() {
        let decided = trace(vec![step(0, 1, 10, None), step(0, 2, 20, Some(3))]);
        let shorter = trace(vec![step(0, 1, 10, None)]);
        assert_eq!(
            compare_views(&decided, &shorter, ProcessId::new(0)),
            ViewComparison::UndecidedPrefix
        );
        let diverged = trace(vec![step(0, 1, 99, None)]);
        assert_eq!(
            compare_views(&decided, &diverged, ProcessId::new(0)),
            ViewComparison::Divergent
        );
    }

    #[test]
    fn set_indistinguishability_requires_all_members() {
        let a = trace(vec![step(0, 1, 10, Some(1)), step(1, 1, 50, Some(2))]);
        let b = trace(vec![step(0, 1, 10, Some(1)), step(1, 1, 51, Some(2))]);
        let only_p0: ProcessSet = [ProcessId::new(0)].into();
        let both: ProcessSet = [ProcessId::new(0), ProcessId::new(1)].into();
        assert!(indistinguishable_for_set(&a, &b, only_p0));
        assert!(!indistinguishable_for_set(&a, &b, both));
    }

    #[test]
    fn compatibility_quantifies_correctly() {
        let a1 = trace(vec![step(0, 1, 10, Some(1))]);
        let a2 = trace(vec![step(0, 1, 20, Some(2))]);
        let b1 = trace(vec![step(0, 1, 10, Some(1))]);
        let b2 = trace(vec![step(0, 1, 20, Some(2))]);
        let d: ProcessSet = [ProcessId::new(0)].into();
        assert!(compatible(&[a1.clone(), a2.clone()], &[b1.clone(), b2], d));
        assert!(!compatible(&[a1, a2], &[b1], d), "a2 has no counterpart");
    }

    #[test]
    fn empty_set_is_trivially_indistinguishable() {
        let a = trace(vec![step(0, 1, 1, None)]);
        let b = trace(vec![step(0, 1, 2, None)]);
        assert!(indistinguishable_for_set(&a, &b, ProcessSet::new()));
    }
}
