//! The oracle hook: how the simulator asks a failure detector for a value.
//!
//! Section II of the paper adds a sixth dimension to the
//! Dolev–Dwork–Stockmeyer model space: in the favourable setting, "processes
//! can query a failure detector at the beginning of each step". The sampled
//! value is then an input of the atomic state transition.
//!
//! The simulator is agnostic about the detector class; it only needs a
//! source of samples keyed by `(process, time)` — exactly the history
//! function `H(p, t)` of Section II-C. Concrete classes (Σk, Ωk, the
//! partition detector of Definition 7, …) live in the `kset-fd` crate and
//! implement [`Oracle`].

use crate::failure::FailurePattern;
use crate::ids::{ProcessId, Time};

/// A failure-detector oracle producing the history function `H(p, t)`.
///
/// The engine calls [`Oracle::sample`] once per step, immediately before the
/// state transition of the stepping process, passing the current global time
/// and the failure pattern of the run **so far** (crashes that already
/// happened). Oracles that need knowledge of the *future* failure pattern —
/// e.g. an eventually-stabilizing Ωk whose final leader set must intersect
/// the correct processes — should be constructed with the planned pattern up
/// front; the per-call view is a convenience for "realistic" detectors such
/// as the perfect detector.
pub trait Oracle {
    /// The sample type handed to the process's step function.
    type Sample: Clone + std::fmt::Debug;

    /// Produces `H(p, t)` for the stepping process.
    fn sample(&mut self, p: ProcessId, t: Time, observed: &FailurePattern) -> Self::Sample;
}

/// Mutable references to oracles are oracles, so a caller can lend an
/// oracle to a simulation and inspect it (e.g. its recorded history)
/// afterwards.
impl<O: Oracle + ?Sized> Oracle for &mut O {
    type Sample = O::Sample;

    fn sample(&mut self, p: ProcessId, t: Time, observed: &FailurePattern) -> Self::Sample {
        (**self).sample(p, t, observed)
    }
}

/// The "no failure detector" oracle (unfavourable setting of dimension 6).
///
/// Produces `()` samples; algorithms whose `Fd` type is `()` pair with this
/// oracle.
///
/// # Examples
///
/// ```
/// use kset_sim::{NoOracle, Oracle, ProcessId, Time, FailurePattern};
///
/// let mut oracle = NoOracle;
/// let fp = FailurePattern::all_correct(3);
/// let sample = oracle.sample(ProcessId::new(0), Time::ZERO, &fp);
/// assert_eq!(sample, ());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoOracle;

impl Oracle for NoOracle {
    type Sample = ();

    fn sample(&mut self, _p: ProcessId, _t: Time, _observed: &FailurePattern) -> Self::Sample {}
}

/// An oracle defined by a closure; convenient for tests and scripted
/// adversarial histories.
///
/// # Examples
///
/// ```
/// use kset_sim::{FnOracle, Oracle, ProcessId, Time, FailurePattern};
///
/// let mut oracle = FnOracle::new(|p: ProcessId, t: Time, _fp: &FailurePattern| {
///     (p.index() as u64) + t.raw()
/// });
/// let fp = FailurePattern::all_correct(2);
/// assert_eq!(oracle.sample(ProcessId::new(1), Time::new(3), &fp), 4);
/// ```
pub struct FnOracle<F, S> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<F, S> FnOracle<F, S>
where
    F: FnMut(ProcessId, Time, &FailurePattern) -> S,
{
    /// Wraps a closure as an oracle.
    pub fn new(f: F) -> Self {
        FnOracle {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A closure oracle is cloneable when its closure is (all its captures
/// are), so simulations that use one can be forked and explored.
impl<F: Clone, S> Clone for FnOracle<F, S> {
    fn clone(&self) -> Self {
        FnOracle {
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<F, S> std::fmt::Debug for FnOracle<F, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnOracle").finish_non_exhaustive()
    }
}

impl<F, S> Oracle for FnOracle<F, S>
where
    F: FnMut(ProcessId, Time, &FailurePattern) -> S,
    S: Clone + std::fmt::Debug,
{
    type Sample = S;

    fn sample(&mut self, p: ProcessId, t: Time, observed: &FailurePattern) -> S {
        (self.f)(p, t, observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_oracle_returns_unit() {
        let mut o = NoOracle;
        let fp = FailurePattern::all_correct(1);
        // Type-level check is the point; this must compile and return ().
        o.sample(ProcessId::new(0), Time::ZERO, &fp);
    }

    #[test]
    fn fn_oracle_sees_failure_pattern() {
        let mut o = FnOracle::new(|_p, _t, fp: &FailurePattern| fp.num_faulty());
        let mut fp = FailurePattern::all_correct(3);
        assert_eq!(o.sample(ProcessId::new(0), Time::ZERO, &fp), 0);
        fp.record_crash(ProcessId::new(2), Time::new(1));
        assert_eq!(o.sample(ProcessId::new(0), Time::new(2), &fp), 1);
    }

    #[test]
    fn fn_oracle_is_stateful() {
        let mut count = 0u32;
        let mut o = FnOracle::new(move |_p, _t, _fp: &FailurePattern| {
            count += 1;
            count
        });
        let fp = FailurePattern::all_correct(1);
        assert_eq!(o.sample(ProcessId::new(0), Time::ZERO, &fp), 1);
        assert_eq!(o.sample(ProcessId::new(0), Time::ZERO, &fp), 2);
    }
}
