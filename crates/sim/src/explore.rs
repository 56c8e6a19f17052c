//! Bounded exhaustive schedule exploration: a small model checker.
//!
//! Impossibility proofs quantify over *all* runs; sampled schedules can
//! only witness, never verify. For small systems the simulator can close
//! the gap by exhaustively enumerating every scheduling choice within a
//! bound: at each configuration, every alive process may step with every
//! delivery from a configurable branching menu. States are deduplicated by
//! configuration fingerprint (local states + decisions + buffer contents),
//! so confluent schedules collapse.
//!
//! The explorer drives two use cases in the workspace:
//!
//! * **exhaustive safety** — verify that an algorithm's k-Agreement holds
//!   in *every* bounded run (e.g. the two-stage protocol on small systems,
//!   complementing the randomized tests);
//! * **violation search** — find a concrete schedule (returned as a
//!   replayable [`Choice`] path) on which a flawed candidate misbehaves,
//!   which is the fully automatic cousin of the Theorem 1 adversary.
//!
//! The branching menu trades precision for tractability:
//! [`Branching::NoneOrAll`] (deliver nothing or everything) suffices to
//! break most wrong algorithms; [`Branching::PerSource`] additionally
//! enumerates per-source delivery subsets — the full asynchronous
//! adversary for algorithms insensitive to intra-source batching.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::buffer::Buffer;
use crate::engine::{combine_fingerprints, Simulation, UndoLog};
use crate::ids::{ProcessId, ProcessSet};
use crate::oracle::Oracle;
use crate::process::Process;
use crate::sched::{Choice, Delivery};

/// How to branch on message delivery at each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branching {
    /// Each step delivers either nothing or everything pending.
    NoneOrAll,
    /// Each step delivers all pending messages from one chosen subset of
    /// sources (including the empty subset).
    PerSource,
}

/// Exploration limits and options.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum run length (depth of the schedule tree).
    pub max_depth: usize,
    /// Maximum number of configurations to expand (safety valve).
    pub max_states: usize,
    /// Delivery branching menu.
    pub branching: Branching,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 24,
            max_states: 200_000,
            branching: Branching::NoneOrAll,
        }
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct configurations expanded.
    pub states_expanded: usize,
    /// Terminal configurations reached (all correct decided, or no moves).
    pub terminals: usize,
    /// Child configurations generated: one per successful step of an
    /// expanded configuration, duplicates and skipped no-op steps included.
    pub children: usize,
    /// Children whose fingerprint was already seen, so they were not
    /// explored again. On an untruncated run with no violation,
    /// `children − dedup_hits == states_expanded − 1`: every other child is
    /// fresh and gets expanded, and so does the initial configuration.
    pub dedup_hits: usize,
    /// Dedup hits the explorer did not step at all: `None` steps it knew
    /// would leave the configuration unchanged (see [`explore`]). They are
    /// counted in `children` and `dedup_hits` too.
    pub noop_skips: usize,
    /// The depth of the deepest configuration reached (the initial one is
    /// at depth 0).
    pub max_depth: usize,
    /// The most configurations waiting at once to be expanded: fresh
    /// children recorded and not yet taken, over every depth of the current
    /// path. The initial configuration waits alone at first, so this is at
    /// least 1.
    pub peak_stack: usize,
    /// Whether the state or depth budget was exhausted (the check is then
    /// partial, not even complete up to the depth bound; see [`explore`]).
    pub truncated: bool,
    /// The first safety violation found, with the schedule reaching it.
    pub violation: Option<ViolationPath>,
}

impl ExploreReport {
    /// Whether the bounded exploration proved the property (no violation
    /// and no truncation).
    ///
    /// The proof holds up to fingerprint collisions. Configurations are
    /// deduplicated by 64-bit fingerprint, so a configuration that collides
    /// with an earlier, different one is never explored. Over `S` distinct
    /// configurations that happens with probability about `S²/2⁶⁵`: about
    /// 2.7 × 10⁻¹¹ at 31 495 states, 1.1 × 10⁻⁷ at 2 M and 1.1 × 10⁻⁵ at
    /// 20 M.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// A violation and the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct ViolationPath {
    /// Why the checker flagged the configuration.
    pub reason: String,
    /// The schedule from the initial configuration to the violation.
    pub path: Vec<Choice>,
}

/// Exhaustively explores all schedules of `sim` within `config`, checking
/// `check` at every reached configuration. `check` returns `Err(reason)`
/// to flag a violation (the search stops at the first one).
///
/// The exploration treats "all correct processes decided" as terminal.
/// Crash plans are honoured (the explorer also branches over *when*
/// plan-scheduled crashes strike, since those are driven by local step
/// counts and thus by the schedule itself). While a planned crash is
/// pending, the process's fingerprint component covers its local step
/// count, so configurations that differ only in when it will crash are
/// not merged.
///
/// The search holds one configuration, the one at the end of the schedule
/// it is exploring, and clones nothing but `sim`. To expand a
/// configuration, it applies each move to the configuration itself,
/// hashes the result, and reverts the step. A child whose fingerprint is
/// new is checked on the stepped configuration and recorded as its
/// [`Choice`] and fingerprint components. When the expansion is done, the
/// search takes the recorded children last-first: it steps each one
/// again, expands it, and undoes the step on the way back. So no child
/// costs a clone: a duplicate costs a step and an undo, a fresh child two
/// of each.
///
/// No child costs an allocation either. Each depth keeps one undo log,
/// which refreshes its copy of the stepping process's state in place with
/// [`Clone::clone_from`] and swaps it back on undo, and lends every step
/// the same delivery and send buffers. The delivery menu is iterated, not
/// collected, and the dedup set takes each fingerprint as its own hash. So
/// once the logs are warm, the search allocates only as its dedup set, its
/// path and its per-depth records grow: 151 allocations for the 13 800
/// children of two-stage n = 3, L = 2, [`Branching::PerSource`]. A
/// [`Process`] whose state owns heap buffers keeps this only if it
/// implements `clone_from` to reuse them (see [`Process`]).
///
/// Taking a recorded child again relies on a step being a function of the
/// configuration and the choice, so that the step lands on the
/// configuration `check` saw; debug builds assert that it does. The undo
/// relies on it too. A process or oracle whose step reads a clock, or
/// iterates a hash map whose order a clone does not keep, would break it;
/// none in the workspace does.
///
/// Some duplicates are not even stepped. When a process's `None` step sends
/// nothing and leaves its fingerprint component unchanged, the explorer
/// marks the process, and the configurations below skip its `None` step
/// until it steps again. Such a step reads only the process's own state
/// and its detector sample, and other processes' steps only append to its
/// buffer, which a `None` step never reads. So the skipped child would be
/// the configuration itself, already seen. A skip counts as a child and a
/// dedup hit, and in [`ExploreReport::noop_skips`]. A process with a
/// pending planned crash is never marked: its `None` step advances the
/// local step count in its fingerprint component. The explorer skips only
/// when the oracle and its sample are zero-sized (as for
/// [`NoOracle`](crate::oracle::NoOracle)): then every sample is the same
/// value, and sampling changes nothing.
///
/// The configurations handed to `check` descend from one fork of `sim`
/// that records no trace: their [`Simulation::trace`] is empty. A
/// configuration's history is the schedule reaching it, which a violation
/// reports as its [`ViolationPath`]; replay that path on `sim` to get the
/// trace.
///
/// A `truncated` report is not a complete verification up to
/// `max_depth`. Deduplication is depth-first: a configuration first
/// reached at the depth bound is not expanded, and a shorter path that
/// reaches it later finds it already seen, so states within the bound can
/// go unexplored. Only an untruncated report ([`ExploreReport::verified`])
/// covers every schedule.
pub fn explore<P, O>(
    sim: &Simulation<P, O>,
    config: &ExploreConfig,
    mut check: impl FnMut(&Simulation<P, O>) -> Result<(), String>,
) -> ExploreReport
where
    P: Process,
    P::Input: Clone,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd> + Clone,
{
    // Fingerprint dedup set. A fingerprint leaves its hasher avalanched, so
    // the set takes it as its own hash instead of hashing it again; no key
    // comes from outside the program.
    let mut seen: HashSet<u64, BuildHasherDefault<Prehashed>> = HashSet::default();
    let mut report = ExploreReport {
        states_expanded: 0,
        terminals: 0,
        children: 0,
        dedup_hits: 0,
        noop_skips: 0,
        max_depth: 0,
        peak_stack: 1,
        truncated: false,
        violation: None,
    };
    let mut current = sim.clone();
    current.stop_tracing();
    let n = current.n();
    // The fingerprint components of `current`.
    let mut components: Vec<u64> = ProcessId::all(n)
        .map(|p| current.process_fingerprint(p))
        .collect();
    seen.insert(combine_fingerprints(components.iter().copied()));
    if let Err(reason) = check(&current) {
        report.violation = Some(ViolationPath {
            reason,
            path: Vec::new(),
        });
        return report;
    }

    let skip_noops = size_of::<O>() == 0 && size_of::<P::Fd>() == 0;
    // The schedule reaching `current`; its length is `current`'s depth.
    let mut path: Vec<Choice> = Vec::new();
    // `levels[d]` records the fresh children of the configuration at depth
    // d of `path`. A level past the current depth is empty, kept for reuse.
    let mut levels: Vec<Level<P, O>> = Vec::new();
    // The processes whose `None` step is known to leave `current` unchanged.
    let mut noops = ProcessSet::new();
    // Fresh children recorded and not yet taken, over every level.
    let mut waiting = 0usize;
    let mut next: Vec<u64> = Vec::new();
    loop {
        if report.states_expanded >= config.max_states {
            report.truncated = true;
            return report;
        }
        report.states_expanded += 1;
        let depth = path.len();
        if levels.len() == depth {
            levels.push(Level::new());
        }
        let level = &mut levels[depth];
        debug_assert!(
            level.choices.is_empty(),
            "a level is left only once its children are all taken"
        );
        if current.all_correct_decided() {
            report.terminals += 1;
        } else if depth >= config.max_depth {
            report.truncated = true;
        } else {
            let mut any_move = false;
            for pid in ProcessId::all(n) {
                if !current.is_alive(pid) {
                    continue;
                }
                for delivery in delivery_menu(current.buffer(pid), config.branching) {
                    let no_delivery = matches!(delivery, Delivery::None);
                    if no_delivery && noops.contains(pid) {
                        any_move = true;
                        report.children += 1;
                        report.dedup_hits += 1;
                        report.noop_skips += 1;
                        #[cfg(debug_assertions)]
                        {
                            let log = &mut level.log;
                            // kset-lint: allow(observer-bypass): takes the skipped step anyway, under debug assertions only, to check that it changes nothing; reverted at once
                            let stepped = current.step_undoable(pid, Delivery::None, log);
                            assert!(stepped.is_ok() && log.destinations().is_empty());
                            assert_eq!(
                                current.config_fingerprint(),
                                combine_fingerprints(components.iter().copied()),
                                "a skipped None step of {pid} changes the configuration"
                            );
                            current.undo(log);
                        }
                        continue;
                    }
                    // kset-lint: allow(observer-bypass): the DFS explorer steps each expanded configuration in place once per menu entry and reverts it; observer event streams are a per-run concept and would only alias across branches here
                    let stepped = current.step_undoable(pid, delivery.clone(), &mut level.log);
                    if stepped.is_err() {
                        continue;
                    }
                    any_move = true;
                    report.children += 1;
                    // A step changes the stepping process's component and can
                    // only append to other buffers: rehash just those.
                    next.clone_from(&components);
                    let mut touched: ProcessSet =
                        level.log.destinations().iter().copied().collect();
                    touched.insert(pid);
                    for q in touched {
                        next[q.index()] = current.process_fingerprint(q);
                    }
                    let fingerprint = combine_fingerprints(next.iter().copied());
                    debug_assert_eq!(fingerprint, current.config_fingerprint());
                    if skip_noops
                        && no_delivery
                        && level.log.destinations().is_empty()
                        && next[pid.index()] == components[pid.index()]
                    {
                        noops.insert(pid);
                    }
                    if seen.insert(fingerprint) {
                        let choice = Choice { pid, delivery };
                        if let Err(reason) = check(&current) {
                            let mut vpath = path.clone();
                            vpath.push(choice);
                            report.violation = Some(ViolationPath {
                                reason,
                                path: vpath,
                            });
                            return report;
                        }
                        level.choices.push(choice);
                        level.components.extend_from_slice(&next);
                        waiting += 1;
                        report.max_depth = report.max_depth.max(depth + 1);
                        report.peak_stack = report.peak_stack.max(waiting);
                    } else {
                        report.dedup_hits += 1; // already explored an equivalent configuration
                    }
                    current.undo(&mut level.log);
                    debug_assert_eq!(
                        current.config_fingerprint(),
                        combine_fingerprints(components.iter().copied()),
                        "an undo restores the parent"
                    );
                }
            }
            if !any_move {
                report.terminals += 1;
            }
            // The marks found by the whole expansion, which every child
            // inherits but for its own stepping process's.
            level.noops = noops;
        }

        // Take the next child: the last one recorded at the deepest level
        // that still has one, undoing the steps into the levels left behind.
        loop {
            let depth = path.len();
            let level = &mut levels[depth];
            if let Some(choice) = level.choices.pop() {
                waiting -= 1;
                let start = level.components.len() - n;
                components.copy_from_slice(&level.components[start..]);
                level.components.truncate(start);
                // A child is its parent plus one step of its process, which
                // can only append to the other processes' buffers. So it
                // keeps every mark but its own process's.
                noops = level.noops;
                noops.remove(choice.pid);
                let delivery = choice.delivery.clone();
                // kset-lint: allow(observer-bypass): the DFS explorer steps again into a fresh child it recorded, to expand it in place, and undoes the step once the child's subtree is done; as for the probing steps, a per-run event stream would only alias across branches
                let stepped = current.step_undoable(choice.pid, delivery, &mut level.log);
                debug_assert!(stepped.is_ok(), "a recorded child steps again");
                debug_assert_eq!(
                    current.config_fingerprint(),
                    combine_fingerprints(components.iter().copied()),
                    "stepping again lands on the child `check` saw"
                );
                path.push(choice);
                break;
            }
            if depth == 0 {
                debug_assert_eq!(
                    report.children - report.dedup_hits,
                    report.states_expanded - 1,
                    "every fresh child was expanded"
                );
                return report;
            }
            path.pop();
            current.undo(&mut levels[depth - 1].log);
        }
    }
}

/// The fresh children of one configuration on the explorer's path, reused
/// at its depth across expansions: each child's choice and fingerprint
/// components, the configuration's no-op marks, and the undo log of the
/// step into the child being explored below (during the expansion itself,
/// of each probed step).
struct Level<P: Process, O> {
    choices: Vec<Choice>,
    /// `n` components per child, in the order of `choices`.
    components: Vec<u64>,
    /// The processes whose `None` step is known to leave the configuration
    /// unchanged.
    noops: ProcessSet,
    log: UndoLog<P, O>,
}

impl<P: Process, O> Level<P, O> {
    fn new() -> Self {
        Level {
            choices: Vec::new(),
            components: Vec::new(),
            noops: ProcessSet::new(),
            log: UndoLog::new(),
        }
    }
}

/// Exhaustively explores all schedules of a compiled
/// [`Scenario`](crate::scenario::Scenario): the scenario's crash plan and
/// inputs become the initial configuration (its schedule family is
/// irrelevant here — the explorer quantifies over *all* schedules), and
/// `check` is evaluated at every reached configuration as in [`explore`].
///
/// # Errors
///
/// Returns the scenario's first
/// [`ScenarioError`](crate::scenario::ScenarioError) if it fails
/// validation or compilation.
pub fn explore_scenario<P>(
    scenario: &crate::scenario::Scenario,
    config: &ExploreConfig,
    check: impl FnMut(&Simulation<P, crate::oracle::NoOracle>) -> Result<(), String>,
) -> Result<ExploreReport, crate::scenario::ScenarioError>
where
    P: crate::scenario::ScenarioProcess,
    P::Input: Clone,
{
    let sim = scenario.to_simulation::<P>()?;
    Ok(explore(&sim, config, check))
}

/// The delivery branching menu for a process with pending messages
/// `buffer`: `None` first, then `All`, or each non-empty subset of the
/// pending sources. The menu owns what it needs of `buffer`, so the caller
/// can step the configuration while it iterates.
fn delivery_menu<M>(buffer: &Buffer<M>, branching: Branching) -> impl Iterator<Item = Delivery> {
    // Enumerate the subsets directly on the bitset: the classic
    // sub = (sub - 1) & mask walk, width-generic via `WideSet::subsets` so
    // it holds past 128 processes. An empty buffer has no subsets.
    let (all, sources) = match branching {
        _ if buffer.is_empty() => (None, ProcessSet::new()),
        Branching::NoneOrAll => (Some(Delivery::All), ProcessSet::new()),
        Branching::PerSource => (None, buffer.sources()),
    };
    std::iter::once(Delivery::None)
        .chain(all)
        .chain(sources.subsets().map(Delivery::AllFrom))
}

/// The hasher of the dedup set: a key, a configuration fingerprint whose
/// hasher ends with an avalanche, is its own hash.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached for the set's `u64` keys; fold any
        // other input in so the hasher stays total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::CrashPlan;
    use crate::message::Envelope;
    use crate::process::{Effects, ProcessInfo};
    use std::collections::BTreeSet;

    /// Echo-min: broadcast input once; decide the minimum heard after
    /// receiving from everyone (n-process barrier). Safe: consensus on min.
    #[derive(Debug, Clone, Hash)]
    struct BarrierMin {
        n: usize,
        me: usize,
        seen: Vec<(usize, u64)>,
        sent: bool,
    }

    impl Process for BarrierMin {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(info: ProcessInfo, input: u64) -> Self {
            BarrierMin {
                n: info.n,
                me: info.id.index(),
                seen: vec![(info.id.index(), input)],
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
                effects.broadcast_others(self.seen[0].1);
            }
            for env in delivered {
                if !self.seen.iter().any(|(s, _)| *s == env.src.index()) {
                    self.seen.push((env.src.index(), env.payload));
                }
            }
            if self.seen.len() == self.n {
                effects.decide(self.seen.iter().map(|(_, v)| *v).min().unwrap());
            }
        }
    }

    /// Flawed: decides its own value if its first step sees an empty
    /// buffer (a race only some schedules expose).
    #[derive(Debug, Clone, Hash)]
    struct RacyDecide {
        value: u64,
        stepped: bool,
    }

    impl Process for RacyDecide {
        type Msg = u64;
        type Input = u64;
        type Output = u64;
        type Fd = ();

        fn init(_info: ProcessInfo, input: u64) -> Self {
            RacyDecide {
                value: input,
                stepped: false,
            }
        }

        fn step(
            &mut self,
            delivered: &[Envelope<u64>],
            _fd: Option<&()>,
            effects: &mut Effects<u64, u64>,
        ) {
            if !self.stepped {
                self.stepped = true;
                effects.broadcast_others(self.value);
                if delivered.is_empty() {
                    effects.decide(self.value);
                } // else: adopt the first heard value
            }
            if let Some(env) = delivered.first() {
                effects.decide(env.payload);
            }
        }
    }

    #[test]
    fn exhaustive_consensus_verification() {
        let sim: Simulation<BarrierMin, _> = Simulation::new(vec![5, 2, 9], CrashPlan::none());
        let config = ExploreConfig {
            max_depth: 16,
            max_states: 500_000,
            branching: Branching::NoneOrAll,
        };
        let report = explore(&sim, &config, |s| {
            let decided: BTreeSet<u64> = s.decisions().iter().flatten().copied().collect();
            if decided.len() > 1 {
                return Err(format!("two decisions: {decided:?}"));
            }
            if decided.iter().any(|v| *v != 2) {
                return Err(format!("non-minimum decision: {decided:?}"));
            }
            Ok(())
        });
        assert!(
            report.verified(),
            "truncated={} violation={:?}",
            report.truncated,
            report.violation
        );
        assert!(report.terminals > 0);
    }

    #[test]
    fn violation_search_finds_the_racy_schedule() {
        let sim: Simulation<RacyDecide, _> = Simulation::new(vec![1, 2], CrashPlan::none());
        let config = ExploreConfig::default();
        let report = explore(&sim, &config, |s| {
            let decided: BTreeSet<u64> = s.decisions().iter().flatten().copied().collect();
            if decided.len() > 1 {
                return Err(format!("consensus violated: {decided:?}"));
            }
            Ok(())
        });
        let violation = report.violation.expect("the race must be found");
        assert!(!violation.path.is_empty());
        // The returned path is replayable: drive a fresh simulation down it
        // and observe the same violation.
        let mut replay_sim: Simulation<RacyDecide, _> =
            Simulation::new(vec![1, 2], CrashPlan::none());
        for choice in &violation.path {
            replay_sim
                .step(choice.pid, choice.delivery.clone())
                .unwrap();
        }
        let decided: BTreeSet<u64> = replay_sim.decisions().iter().flatten().copied().collect();
        assert_eq!(
            decided.len(),
            2,
            "replayed schedule reproduces the violation"
        );
    }

    #[test]
    fn dedup_collapses_confluent_schedules() {
        // Two processes that never communicate: the diamond (p1 then p2 vs
        // p2 then p1) must collapse via fingerprint dedup.
        let sim: Simulation<RacyDecide, _> = Simulation::new(vec![1, 2], CrashPlan::none());
        let config = ExploreConfig {
            max_depth: 4,
            max_states: 10_000,
            branching: Branching::NoneOrAll,
        };
        let mut visits = 0usize;
        let _ = explore(&sim, &config, |_| {
            visits += 1;
            Ok(())
        });
        // Without dedup the 2-process tree to depth 4 has ≫ 30 nodes; with
        // dedup the diamond collapses to these few configurations.
        assert_eq!(visits, 6, "dedup ineffective: {visits} checks");
    }

    #[test]
    fn per_source_branching_enumerates_subsets() {
        let mut sim: Simulation<BarrierMin, _> = Simulation::new(vec![5, 2, 9], CrashPlan::none());
        // Everyone broadcasts.
        for p in ProcessId::all(3) {
            sim.step(p, Delivery::None).unwrap();
        }
        let buffer = sim.buffer(ProcessId::new(0));
        // p1's buffer holds messages from p2 and p3: 4 subsets.
        assert_eq!(delivery_menu(buffer, Branching::PerSource).count(), 4);
        assert_eq!(delivery_menu(buffer, Branching::NoneOrAll).count(), 2);
        let empty = Buffer::<u64>::new();
        for branching in [Branching::NoneOrAll, Branching::PerSource] {
            let menu: Vec<Delivery> = delivery_menu(&empty, branching).collect();
            assert_eq!(menu, vec![Delivery::None]);
        }
    }

    #[test]
    fn initial_violation_is_reported_with_empty_path() {
        let sim: Simulation<RacyDecide, _> = Simulation::new(vec![1], CrashPlan::none());
        let report = explore(&sim, &ExploreConfig::default(), |_| Err("always".into()));
        let v = report.violation.unwrap();
        assert!(v.path.is_empty());
    }

    #[test]
    fn state_budget_truncates() {
        let sim: Simulation<BarrierMin, _> = Simulation::new(vec![1, 2, 3, 4], CrashPlan::none());
        let config = ExploreConfig {
            max_depth: 64,
            max_states: 5,
            branching: Branching::NoneOrAll,
        };
        let report = explore(&sim, &config, |_| Ok(()));
        assert!(report.truncated);
        assert!(!report.verified());
    }
}
