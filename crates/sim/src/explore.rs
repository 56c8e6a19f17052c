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
use crate::ids::{ProcessId, ProcessSet, SubsetIter, PSET_LIMBS};
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
    /// 20 M. The set of inert local states (see [`explore`]) assumes as
    /// much of its 64-bit keys: a local state whose key collides with an
    /// inert one's has its `None` step skipped untaken, and the child it
    /// would reach goes unexplored. With `I` inert keys, looked up once per
    /// fresh child, that happens with probability about `S·I/2⁶⁴`, below
    /// the dedup set's while `I < S/2`; the n = 4, L = 3
    /// [`Branching::NoneOrAll`] verdict keeps 809 keys for its 28 468
    /// states. Debug builds take every skipped step and assert that
    /// it changes nothing.
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
/// The search is depth-first and holds one configuration, the one at the
/// end of the schedule it is exploring; it clones nothing but `sim`. Each
/// depth of that schedule keeps a frame: the fingerprint components of its
/// configuration, its no-op marks, a cursor into its delivery menu and an
/// undo log. The search applies the next move of the deepest frame to the
/// configuration itself and hashes the result. A child whose fingerprint
/// is new is checked on the stepped configuration and explored at once,
/// from a frame one deeper; when that frame's menu is done, the search
/// undoes the step into it and moves on in the frame above. A duplicate is
/// undone at once. So every child costs one step and one undo, and nothing
/// waits to be taken later.
///
/// No child costs an allocation either. Each frame's undo log refreshes
/// its copy of the stepping process's state in place with
/// [`Clone::clone_from`] and swaps it back on undo, and lends every step
/// the same delivery and send buffers. The delivery menu is iterated, not
/// collected, and the dedup set takes each fingerprint as its own hash. So
/// once the frames are warm, the search allocates only as its hash sets,
/// its path and its frames grow: 120 allocations for the 13 800
/// children of two-stage n = 3, L = 2, [`Branching::PerSource`]. A
/// [`Process`] whose state owns heap buffers keeps this only if it
/// implements `clone_from` to reuse them (see [`Process`]).
///
/// The undo relies on a step being a function of the configuration and the
/// choice. A process or oracle whose step reads a clock, or iterates a
/// hash map whose order a clone does not keep, would break it; none in the
/// workspace does. Debug builds assert that every undo restores the parent.
///
/// Some duplicates are not even stepped. When a process's `None` step sends
/// nothing and leaves its fingerprint component unchanged, the explorer
/// marks the process, and the configurations below skip its `None` step
/// until it steps again. Such a step reads only the process's own state,
/// its decision and its detector sample, and other processes' steps only
/// append to its buffer, which a `None` step never reads. So the skipped
/// child would be the configuration itself, already seen. The explorer
/// also keeps such local parts, as a set of inert local states: when a
/// process steps into a local state the set holds, the child keeps the
/// process's mark instead of probing its `None` step again. A skip counts
/// as a child and a dedup hit, and in [`ExploreReport::noop_skips`]. A
/// process with a pending planned crash is never marked, nor its state
/// kept: its `None` step advances the local step count in its fingerprint
/// component. The explorer skips only when the oracle and its sample are
/// zero-sized (as for [`NoOracle`](crate::oracle::NoOracle)): then every
/// sample is the same value, and sampling changes nothing. Debug builds
/// take every skipped step anyway and assert that it changes nothing.
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
    // The inert local states: the local-part hash (see
    // `Simulation::fingerprint_component`) of every state whose `None` step
    // was found to change nothing. Kept as `seen` is.
    let mut inert: HashSet<u64, BuildHasherDefault<Prehashed>> = HashSet::default();
    let mut report = ExploreReport {
        states_expanded: 0,
        terminals: 0,
        children: 0,
        dedup_hits: 0,
        noop_skips: 0,
        max_depth: 0,
        truncated: false,
        violation: None,
    };
    let mut current = sim.clone();
    current.stop_tracing();
    let n = current.n();
    // `frames[d]` explores the configuration at depth d of `path`. A frame
    // past the current depth is kept for reuse.
    let mut frames: Vec<Frame<P, O>> = vec![Frame::new()];
    frames[0]
        .components
        .extend(ProcessId::all(n).map(|p| current.process_fingerprint(p)));
    seen.insert(combine_fingerprints(frames[0].components.iter().copied()));
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
    if !frames[0].enter(&current, 0, config, &mut report) {
        return report;
    }
    loop {
        let depth = path.len();
        if frames.len() == depth + 1 {
            frames.push(Frame::new());
        }
        let (above, below) = frames.split_at_mut(depth + 1);
        let frame = &mut above[depth];
        let Some((pid, delivery)) = frame.next_move(&current, config.branching) else {
            // The frame's menu is done: back to the frame above.
            if !frame.moved {
                report.terminals += 1;
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
            let parent = &mut above[depth - 1];
            current.undo(&mut parent.log);
            debug_assert_eq!(
                current.config_fingerprint(),
                combine_fingerprints(parent.components.iter().copied()),
                "an undo restores the parent"
            );
            continue;
        };
        let no_delivery = matches!(delivery, Delivery::None);
        if no_delivery && frame.noops.contains(pid) {
            frame.moved = true;
            report.children += 1;
            report.dedup_hits += 1;
            report.noop_skips += 1;
            #[cfg(debug_assertions)]
            {
                let log = &mut frame.log;
                // kset-lint: allow(observer-bypass): takes the skipped step anyway, under debug assertions only, to check that it changes nothing; reverted at once
                let stepped = current.step_undoable(pid, Delivery::None, log);
                assert!(stepped.is_ok() && log.destinations().is_empty());
                assert_eq!(
                    current.config_fingerprint(),
                    combine_fingerprints(frame.components.iter().copied()),
                    "a skipped None step of {pid} changes the configuration"
                );
                current.undo(log);
            }
            continue;
        }
        // kset-lint: allow(observer-bypass): the DFS explorer steps the configuration in place once per menu entry and undoes the step after the child or its subtree; observer event streams are a per-run concept and would only alias across branches here
        let stepped = current.step_undoable(pid, delivery.clone(), &mut frame.log);
        if stepped.is_err() {
            continue;
        }
        frame.moved = true;
        report.children += 1;
        // A step changes the stepping process's component and can only
        // append to other buffers: rehash just those.
        let child = &mut below[0];
        child.components.clone_from(&frame.components);
        let (component, local) = current.fingerprint_component(pid);
        child.components[pid.index()] = component;
        let mut touched: ProcessSet = frame.log.destinations().iter().copied().collect();
        touched.remove(pid);
        for q in touched {
            child.components[q.index()] = current.process_fingerprint(q);
        }
        let fingerprint = combine_fingerprints(child.components.iter().copied());
        debug_assert_eq!(fingerprint, current.config_fingerprint());
        if skip_noops
            && no_delivery
            && frame.log.destinations().is_empty()
            && component == frame.components[pid.index()]
        {
            frame.noops.insert(pid);
            if current.crash_plan().crash_for(pid).is_none() {
                inert.insert(local);
            }
        }
        if !seen.insert(fingerprint) {
            report.dedup_hits += 1; // already explored an equivalent configuration
            current.undo(&mut frame.log);
            debug_assert_eq!(
                current.config_fingerprint(),
                combine_fingerprints(frame.components.iter().copied()),
                "an undo restores the parent"
            );
            continue;
        }
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
        // Descend into the child. It is its parent plus one step of `pid`,
        // which can only append to the other processes' buffers, so it keeps
        // every mark but `pid`'s; and `pid`'s too if its new local state is
        // known to be inert.
        child.noops = frame.noops;
        child.noops.remove(pid);
        if skip_noops && inert.contains(&local) {
            child.noops.insert(pid);
        }
        path.push(choice);
        report.max_depth = report.max_depth.max(depth + 1);
        if !child.enter(&current, depth + 1, config, &mut report) {
            return report;
        }
    }
}

/// The explorer's state at one depth of its path: the configuration there,
/// by its fingerprint components and no-op marks, how far the walk of its
/// delivery menus has come, and the undo log of its latest step (a probed
/// child, or the child being explored one frame deeper).
struct Frame<P: Process, O> {
    components: Vec<u64>,
    /// The processes whose `None` step is known to leave the configuration
    /// unchanged.
    noops: ProcessSet,
    /// The process whose menu `menu` walks.
    pid: ProcessId,
    /// The rest of `pid`'s delivery menu.
    menu: Menu,
    /// The index of the next process whose menu the walk opens.
    next_pid: usize,
    /// Whether the walk has stepped, or has nothing to walk: a walk that
    /// ends with neither has found a terminal configuration.
    moved: bool,
    log: UndoLog<P, O>,
}

impl<P, O> Frame<P, O>
where
    P: Process,
    P::Fd: std::hash::Hash,
    O: Oracle<Sample = P::Fd> + Clone,
{
    fn new() -> Self {
        Frame {
            components: Vec::new(),
            noops: ProcessSet::new(),
            pid: ProcessId::new(0),
            menu: Menu::empty(),
            next_pid: 0,
            moved: false,
            log: UndoLog::new(),
        }
    }

    /// Counts `current`, the frame's configuration at `depth`, as expanded,
    /// and sets the walk of its menus going, unless it is terminal or at the
    /// depth bound. Returns `false` when the state budget is spent. The
    /// frame's last walk, if any, has ended, so no menu is left open.
    fn enter(
        &mut self,
        current: &Simulation<P, O>,
        depth: usize,
        config: &ExploreConfig,
        report: &mut ExploreReport,
    ) -> bool {
        if report.states_expanded >= config.max_states {
            report.truncated = true;
            return false;
        }
        report.states_expanded += 1;
        let walk = if current.all_correct_decided() {
            report.terminals += 1;
            false
        } else if depth >= config.max_depth {
            report.truncated = true;
            false
        } else {
            true
        };
        self.next_pid = if walk { 0 } else { current.n() };
        self.moved = !walk;
        true
    }

    /// The next move of the walk: the next entry of the open menu, else the
    /// first entry of the next alive process's menu, opened on `current`,
    /// the frame's configuration. `None` once every menu is done.
    fn next_move(
        &mut self,
        current: &Simulation<P, O>,
        branching: Branching,
    ) -> Option<(ProcessId, Delivery)> {
        loop {
            if let Some(delivery) = self.menu.next() {
                return Some((self.pid, delivery));
            }
            if self.next_pid >= current.n() {
                return None;
            }
            self.pid = ProcessId::new(self.next_pid);
            self.next_pid += 1;
            if current.is_alive(self.pid) {
                self.menu = delivery_menu(current.buffer(self.pid), branching);
            }
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
fn delivery_menu<M>(buffer: &Buffer<M>, branching: Branching) -> Menu {
    // Enumerate the subsets directly on the bitset: the classic
    // sub = (sub - 1) & mask walk, width-generic via `WideSet::subsets` so
    // it holds past 128 processes. An empty buffer has no subsets.
    let (all, sources) = match branching {
        _ if buffer.is_empty() => (false, ProcessSet::new()),
        Branching::NoneOrAll => (true, ProcessSet::new()),
        Branching::PerSource => (false, buffer.sources()),
    };
    Menu {
        none: true,
        all,
        subsets: sources.subsets(),
    }
}

/// What is left of one process's delivery menu (see [`delivery_menu`]).
struct Menu {
    none: bool,
    all: bool,
    subsets: SubsetIter<PSET_LIMBS>,
}

impl Menu {
    /// A menu with nothing left.
    fn empty() -> Self {
        Menu {
            none: false,
            all: false,
            subsets: ProcessSet::new().subsets(),
        }
    }
}

impl Iterator for Menu {
    type Item = Delivery;

    fn next(&mut self) -> Option<Delivery> {
        if std::mem::take(&mut self.none) {
            Some(Delivery::None)
        } else if std::mem::take(&mut self.all) {
            Some(Delivery::All)
        } else {
            self.subsets.next().map(Delivery::AllFrom)
        }
    }
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
