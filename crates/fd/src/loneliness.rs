//! The loneliness detector L.
//!
//! Introduced (in generalized form L(k)) by the paper's authors in their
//! OPODIS'09 companion paper \[2\] and by Delporte-Gallet et al. (DISC'08) as
//! the weakest failure detector for message-passing (n−1)-set agreement. We
//! use it on the k = n−1 endpoint of Corollary 13 (the paper cites Σ(n−1)
//! from \[3\] for that endpoint; L is the equivalent classical device and
//! keeps the algorithm elementary — see DESIGN.md for the substitution
//! note).
//!
//! Specification (boolean output per process):
//!
//! * **Safety (PL)**: at least one process outputs `false` forever;
//! * **Liveness (AL)**: if exactly one process is correct, its output is
//!   eventually `true` forever.

use kset_sim::{FailurePattern, Oracle, ProcessId, Time};

use crate::samples::LonelinessSample;

/// A realistic L oracle driven by the observed failure pattern: a process
/// is told "lonely" once every other process has (observably) crashed.
///
/// *Safety*: at most one process can ever see every other process crashed,
/// so at least `n − 1` processes output `false` forever. *Liveness*: if
/// exactly one process is correct, the others eventually crash and from
/// then on its output is `true`.
#[derive(Debug, Clone)]
pub struct LonelinessOracle {
    n: usize,
}

impl LonelinessOracle {
    /// Creates the oracle for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        LonelinessOracle { n }
    }
}

impl Oracle for LonelinessOracle {
    type Sample = LonelinessSample;

    fn sample(&mut self, p: ProcessId, t: Time, observed: &FailurePattern) -> LonelinessSample {
        let everyone_else_crashed = ProcessId::all(self.n)
            .filter(|q| *q != p)
            .all(|q| observed.is_crashed(q, t));
        LonelinessSample(everyone_else_crashed)
    }
}

/// Checks a recorded loneliness history against the L specification,
/// projected to the finite horizon:
///
/// * safety: at least one process never output `true`;
/// * liveness: if exactly one process is correct and it queried after every
///   crash, its final sample is `true`.
pub fn check_loneliness(
    history: &crate::history::History<LonelinessSample>,
    fp: &FailurePattern,
) -> Result<(), String> {
    let n = fp.n();
    let mut ever_true = vec![false; n];
    for (p, _, s) in history.iter() {
        if s.0 {
            ever_true[p.index()] = true;
        }
    }
    // Safety is only meaningful for n ≥ 2: in a one-process system the
    // lone process IS alone, and the liveness clause forces `true` there.
    if ever_true.iter().all(|b| *b) && n > 1 {
        return Err("safety violated: every process output true at some point".into());
    }
    let correct = fp.correct();
    if let (1, Some(p)) = (correct.len(), correct.first()) {
        let last_crash = fp
            .faulty()
            .iter()
            .filter_map(|q| fp.crash_time(q))
            .max()
            .unwrap_or(Time::ZERO);
        let queried_late = history
            .of_process(p)
            .filter(|(t, _)| *t > last_crash)
            .last();
        if let Some((_, s)) = queried_late {
            if !s.0 {
                return Err(format!(
                    "liveness violated: lone correct {p} still sees false after all crashes"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn not_lonely_while_others_alive() {
        let mut l = LonelinessOracle::new(3);
        let fp = FailurePattern::all_correct(3);
        assert_eq!(l.sample(pid(0), Time::new(1), &fp), LonelinessSample(false));
    }

    #[test]
    fn lonely_once_everyone_else_crashed() {
        let mut l = LonelinessOracle::new(3);
        let mut fp = FailurePattern::all_correct(3);
        fp.record_crash(pid(1), Time::new(1));
        fp.record_crash(pid(2), Time::new(2));
        assert_eq!(l.sample(pid(0), Time::new(3), &fp), LonelinessSample(true));
        assert_eq!(l.sample(pid(0), Time::new(1), &fp), LonelinessSample(false));
    }

    #[test]
    fn generated_history_passes_checker() {
        let mut l = LonelinessOracle::new(3);
        let mut fp = FailurePattern::all_correct(3);
        let mut h = History::new();
        for t in 1..10u64 {
            if t == 3 {
                fp.record_crash(pid(1), Time::new(3));
            }
            if t == 5 {
                fp.record_crash(pid(2), Time::new(5));
            }
            let s = l.sample(pid(0), Time::new(t), &fp);
            h.record(pid(0), Time::new(t), s);
        }
        check_loneliness(&h, &fp).unwrap();
    }

    #[test]
    fn checker_rejects_all_true_history() {
        let fp = FailurePattern::all_correct(2);
        let mut h = History::new();
        h.record(pid(0), Time::new(1), LonelinessSample(true));
        h.record(pid(1), Time::new(2), LonelinessSample(true));
        assert!(check_loneliness(&h, &fp).unwrap_err().contains("safety"));
    }

    #[test]
    fn checker_rejects_liveness_failure() {
        let mut fp = FailurePattern::all_correct(2);
        fp.record_crash(pid(1), Time::new(1));
        let mut h = History::new();
        h.record(pid(0), Time::new(5), LonelinessSample(false));
        assert!(check_loneliness(&h, &fp).unwrap_err().contains("liveness"));
    }
}
