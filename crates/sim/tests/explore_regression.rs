//! Regression tests for the explorer's fingerprint dedup after the
//! `ProcessSet` migration: state fingerprints stay schedule-confluent, the
//! dedup structure (states expanded / terminals) is pinned for a fixed
//! exploration, and the counts are independent of how equivalent
//! configurations were reached.

use kset_sim::explore::{explore, Branching, ExploreConfig, ExploreReport};
use kset_sim::sched::Delivery;
use kset_sim::{
    CrashPlan, Effects, Envelope, Process, ProcessId, ProcessInfo, ProcessSet, Simulation,
};

/// Broadcast once, decide the minimum value heard after hearing everyone —
/// a deterministic algorithm whose state includes a ProcessSet (the heard
/// set), so fingerprints cover the migrated representation.
#[derive(Debug, Clone, Hash)]
struct MinBarrier {
    n: usize,
    heard: ProcessSet,
    min: u64,
    sent: bool,
}

impl Process for MinBarrier {
    type Msg = u64;
    type Input = u64;
    type Output = u64;
    type Fd = ();

    fn init(info: ProcessInfo, input: u64) -> Self {
        MinBarrier {
            n: info.n,
            heard: ProcessSet::singleton(info.id),
            min: input,
            sent: false,
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
            effects.broadcast_others(self.min);
        }
        for env in delivered {
            self.heard.insert(env.src);
            self.min = self.min.min(env.payload);
        }
        if self.heard.len() == self.n {
            effects.decide(self.min);
        }
    }
}

/// The report's deterministic counts beside the state graph:
/// `(children, dedup_hits, noop_skips, max_depth)`.
fn counters(report: &ExploreReport) -> (usize, usize, usize, usize) {
    (
        report.children,
        report.dedup_hits,
        report.noop_skips,
        report.max_depth,
    )
}

/// On an untruncated run with no violation, every fresh child is expanded,
/// and so is the initial configuration.
fn assert_fresh_children_expanded(report: &ExploreReport) {
    assert!(report.verified(), "{report:?}");
    assert_eq!(
        report.children - report.dedup_hits,
        report.states_expanded - 1,
        "{report:?}"
    );
}

fn sim(n: usize) -> Simulation<MinBarrier, kset_sim::NoOracle> {
    Simulation::new(
        (0..n as u64).map(|v| v * 10 + 3).collect(),
        CrashPlan::none(),
    )
}

#[test]
fn fingerprints_are_schedule_confluent() {
    // The dedup invariant: configurations reached through reordered
    // independent steps fingerprint identically.
    let mut a = sim(3);
    let mut b = sim(3);
    for p in [0usize, 1, 2] {
        a.step(ProcessId::new(p), Delivery::None).unwrap();
    }
    for p in [2usize, 0, 1] {
        b.step(ProcessId::new(p), Delivery::None).unwrap();
    }
    assert_eq!(a.config_fingerprint(), b.config_fingerprint());
    // …and a genuinely different configuration differs.
    a.step(ProcessId::new(0), Delivery::All).unwrap();
    assert_ne!(a.config_fingerprint(), b.config_fingerprint());
}

#[test]
fn dedup_counts_are_pinned() {
    // The exact dedup structure of a fixed bounded exploration. These
    // counts changed with neither the BTreeSet-era representation nor the
    // bitset one — they pin the explorer's state graph, so an accidental
    // fingerprint regression (weaker dedup ⇒ more states) fails loudly.
    let config = ExploreConfig {
        max_depth: 10,
        max_states: 1_000_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore(&sim(2), &config, |_| Ok(()));
    assert!(!report.truncated);
    assert!(report.violation.is_none());
    assert_eq!(
        (report.states_expanded, report.terminals),
        (7, 1),
        "n=2 NoneOrAll dedup structure"
    );
    assert_eq!(counters(&report), (18, 12, 3, 4), "n=2 NoneOrAll counters");
    assert_fresh_children_expanded(&report);

    let report3 = explore(&sim(3), &config, |_| Ok(()));
    assert!(!report3.truncated);
    assert_eq!(
        (report3.states_expanded, report3.terminals),
        (54, 1),
        "n=3 NoneOrAll dedup structure"
    );
    assert_eq!(
        counters(&report3),
        (264, 211, 112, 8),
        "n=3 NoneOrAll counters"
    );
    assert_fresh_children_expanded(&report3);
}

#[test]
fn dedup_is_depth_monotone() {
    // Deeper bounds can only reach more states; dedup never loses states.
    let shallow = explore(
        &sim(3),
        &ExploreConfig {
            max_depth: 6,
            max_states: 1_000_000,
            branching: Branching::NoneOrAll,
        },
        |_| Ok(()),
    );
    let deep = explore(
        &sim(3),
        &ExploreConfig {
            max_depth: 8,
            max_states: 1_000_000,
            branching: Branching::NoneOrAll,
        },
        |_| Ok(()),
    );
    assert!(deep.states_expanded >= shallow.states_expanded);
}

#[test]
fn per_source_branching_agrees_with_none_or_all_on_safety() {
    // Both branching menus must verify the same (true) property: the
    // explorer's verdicts are representation-independent.
    let config_na = ExploreConfig {
        max_depth: 8,
        max_states: 500_000,
        branching: Branching::NoneOrAll,
    };
    let config_ps = ExploreConfig {
        max_depth: 8,
        max_states: 500_000,
        branching: Branching::PerSource,
    };
    let check = |s: &Simulation<MinBarrier, kset_sim::NoOracle>| {
        let d: std::collections::BTreeSet<u64> = s.decisions().iter().flatten().copied().collect();
        if d.len() > 1 {
            Err(format!("{} distinct decisions", d.len()))
        } else {
            Ok(())
        }
    };
    assert!(explore(&sim(3), &config_na, check).violation.is_none());
    assert!(explore(&sim(3), &config_ps, check).violation.is_none());
}
