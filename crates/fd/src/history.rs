//! Failure-detector histories: recorded `H(p, t)` maps.
//!
//! Section II-C of the paper defines the behaviour of a detector in a run by
//! its *history function* `H(p, t)`. The simulator queries oracles live; a
//! [`Recorder`] wrapper captures every query so the resulting [`History`]
//! can be validated post-hoc against the class definitions (Definitions 4,
//! 5 and 7) by the checkers in [`crate::checkers`] — this is how Lemma 9
//! ("(Σk,Ωk) is weaker than (Σ′k,Ω′k)") is verified executably.

use std::collections::BTreeMap;

use kset_sim::{FailurePattern, Oracle, ProcessId, ProcessSet, Time};

/// A finite recorded history: every `(p, t)` that was actually queried,
/// with its sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<S> {
    samples: BTreeMap<(ProcessId, Time), S>,
}

impl<S> Default for History<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> History<S> {
    /// An empty history.
    pub fn new() -> Self {
        History {
            samples: BTreeMap::new(),
        }
    }

    /// Records `H(p, t) = sample`.
    pub fn record(&mut self, p: ProcessId, t: Time, sample: S) {
        self.samples.insert((p, t), sample);
    }

    /// Looks up `H(p, t)` if `(p, t)` was queried.
    pub fn get(&self, p: ProcessId, t: Time) -> Option<&S> {
        self.samples.get(&(p, t))
    }

    /// All recorded queries in `(p, t)` order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Time, &S)> {
        self.samples.iter().map(|((p, t), s)| (*p, *t, s))
    }

    /// All queries of one process in time order.
    pub fn of_process(&self, p: ProcessId) -> impl Iterator<Item = (Time, &S)> {
        self.samples
            .iter()
            .filter(move |((q, _), _)| *q == p)
            .map(|((_, t), s)| (*t, s))
    }

    /// The distinct processes that queried.
    pub fn queriers(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self.samples.keys().map(|(p, _)| *p).collect();
        out.dedup();
        out
    }

    /// The latest query time, if any.
    pub fn horizon(&self) -> Option<Time> {
        self.samples.keys().map(|(_, t)| *t).max()
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The sub-history containing only queries by processes in `keep`.
    pub fn restricted_to(&self, keep: ProcessSet) -> History<S>
    where
        S: Clone,
    {
        History {
            samples: self
                .samples
                .iter()
                .filter(|((p, _), _)| keep.contains(*p))
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
        }
    }

    /// Whether no query was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Oracle wrapper that records every sample it hands out.
///
/// # Examples
///
/// ```
/// use kset_fd::Recorder;
/// use kset_sim::{FnOracle, Oracle, ProcessId, Time, FailurePattern};
///
/// let inner = FnOracle::new(|p: ProcessId, _t, _fp: &FailurePattern| p.index());
/// let mut rec = Recorder::new(inner);
/// let fp = FailurePattern::all_correct(2);
/// rec.sample(ProcessId::new(1), Time::new(3), &fp);
/// assert_eq!(rec.history().get(ProcessId::new(1), Time::new(3)), Some(&1));
/// ```
#[derive(Debug)]
pub struct Recorder<O: Oracle> {
    inner: O,
    history: History<O::Sample>,
}

impl<O: Oracle> Recorder<O> {
    /// Wraps `inner`, recording its samples.
    pub fn new(inner: O) -> Self {
        Recorder {
            inner,
            history: History::new(),
        }
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History<O::Sample> {
        &self.history
    }

    /// Consumes the recorder, returning the history.
    pub fn into_history(self) -> History<O::Sample> {
        self.history
    }
}

impl<O: Oracle> Oracle for Recorder<O> {
    type Sample = O::Sample;

    fn sample(&mut self, p: ProcessId, t: Time, observed: &FailurePattern) -> Self::Sample {
        let s = self.inner.sample(p, t, observed);
        self.history.record(p, t, s.clone());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_sim::FnOracle;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn record_and_query() {
        let mut h = History::new();
        h.record(pid(0), Time::new(1), "a");
        h.record(pid(0), Time::new(2), "b");
        h.record(pid(1), Time::new(3), "c");
        assert_eq!(h.get(pid(0), Time::new(2)), Some(&"b"));
        assert_eq!(h.get(pid(1), Time::new(1)), None);
        assert_eq!(h.len(), 3);
        assert_eq!(h.horizon(), Some(Time::new(3)));
    }

    #[test]
    fn of_process_is_time_ordered() {
        let mut h = History::new();
        h.record(pid(0), Time::new(5), 50);
        h.record(pid(0), Time::new(2), 20);
        h.record(pid(1), Time::new(3), 30);
        let times: Vec<u64> = h.of_process(pid(0)).map(|(t, _)| t.raw()).collect();
        assert_eq!(times, vec![2, 5]);
    }

    #[test]
    fn empty_history() {
        let h: History<u8> = History::new();
        assert!(h.is_empty());
        assert_eq!(h.horizon(), None);
        assert!(h.queriers().is_empty());
    }

    #[test]
    fn recorder_captures_all_samples() {
        let inner = FnOracle::new(|p: ProcessId, t: Time, _fp: &FailurePattern| {
            p.index() as u64 * 100 + t.raw()
        });
        let mut rec = Recorder::new(inner);
        let fp = FailurePattern::all_correct(2);
        rec.sample(pid(0), Time::new(1), &fp);
        rec.sample(pid(1), Time::new(2), &fp);
        let h = rec.into_history();
        assert_eq!(h.get(pid(0), Time::new(1)), Some(&1));
        assert_eq!(h.get(pid(1), Time::new(2)), Some(&102));
    }
}
