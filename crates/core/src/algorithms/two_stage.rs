//! The two-stage protocol of Section VI: FLP's initial-crash consensus,
//! generalized to k-set agreement.
//!
//! The protocol (for a waiting threshold `L`):
//!
//! * **Stage 1** — every process broadcasts a `Stage1` message (carrying its
//!   id) and waits until it has received `L − 1` such messages from distinct
//!   other processes.
//! * **Stage 2** — it then broadcasts its initial value together with the
//!   list of the `L − 1` processes heard in stage 1, and waits for stage-2
//!   messages from those `L − 1` processes *and from every remote process
//!   mentioned in one of the lists it receives* (transitive closure).
//!
//! After stage 2 the process knows the set `K` of every process with a path
//! to it in the *stage-one graph* `G` (edge `u → w` iff `w` heard `u` in
//! stage 1), and the heard-list of each member of `K`. Every source
//! component of `G[K]` therefore reaches the process. It selects the one
//! with the smallest minimum vertex, the selection of
//! `kset_graph::chosen_source_component`, and decides the value proposed by
//! that minimum-id member.
//!
//! * With `L = ⌈(n+1)/2⌉` and `n > 2f` the source component is unique
//!   (`2δ ≥ n` with δ = L−1) and the protocol is FLP's initial-crash
//!   **consensus**.
//! * With `L = n − f` there are at most `⌊n/L⌋` source components
//!   (Lemmas 6/7), so the protocol solves **k-set agreement** for every
//!   `k ≥ ⌊n/(n−f)⌋` — equivalently whenever `kn > (k+1)f` (Theorem 8).
//!
//! The protocol tolerates **initial crashes only** (the Section VI model):
//! a process mentioned in a heard-list must eventually send its stage-2
//! message, which holds because having sent `Stage1` proves it was not
//! initially dead.
//!
//! # The decision rule on bitsets
//!
//! The decided member is `c*`, the smallest `c ∈ K` that lies in *any*
//! source component of `G[K]`: the selected component is the one with the
//! smallest minimum, and that minimum is the smallest member of all source
//! components. A vertex `c` lies in a source component iff every vertex
//! that reaches `c` is reached from `c`, `R(c) ⊆ D(c)`. If so, `c`'s
//! component `R(c) ∩ D(c)` is all of `R(c)`, so no edge enters it from
//! outside. If not, some `x` reaches `c` but not the other way, and the
//! path from `x` enters `c`'s component from outside.
//!
//! [`chosen_source_min`] finds `c*` forward–backward on [`ProcessSet`]
//! bitsets, with no graph built. It tries the members of `K` in ascending
//! order. A candidate `c` with `R(c) ⊄ D(c)` is not in a source component,
//! and neither is anything in `D(c)`: a path from `c` into a source
//! component would enter it from outside. So the whole of `D(c)` is
//! skipped. Each candidate tried costs one forward and one backward walk of
//! `O(|K|)` set operations, `O(|K|²)` in all.
//!
//! `K` is closed under in-neighbours, so the source components of `G[K]`
//! are exactly the source components of `G` that reach the process. The
//! answer is therefore the minimum of the graph rule's component;
//! `tests/props_graph.rs` checks the two against each other.
//!
//! The rule is one body, generic over the [`WideSet`] width. A process runs
//! it at the narrowest width its system needs: one 64-bit limb when
//! `n ≤ 64` ([`chosen_source_min_one_limb`], with its rows on the
//! stack), else the full [`PSET_LIMBS`] of a [`ProcessSet`]
//! ([`chosen_source_min`], with its rows in a per-thread buffer). Each set
//! operation of the walks then touches one word instead of eight.

use kset_sim::{
    Effects, Envelope, Process, ProcessId, ProcessInfo, ProcessSet, Scenario, ScenarioProcess,
    SenderMap, WideSet, PSET_LIMBS,
};

use crate::task::Val;

/// Messages of the two-stage protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TwoStageMsg {
    /// Stage-1 beacon ("I am alive"); the sender id travels in the
    /// envelope.
    Stage1,
    /// Stage-2 payload: the sender's proposal and its frozen stage-1
    /// heard-list.
    Stage2 {
        /// The sender's initial value.
        value: Val,
        /// The `L − 1` processes the sender heard from in stage 1.
        heard: ProcessSet,
    },
}

/// Input of a two-stage process: the waiting threshold `L` and the proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoStageInput {
    /// Waiting threshold `L` (the paper's `L`); every process must use the
    /// same value.
    pub l: usize,
    /// The proposal value `x_p`.
    pub value: Val,
}

/// Builds the input vector for a homogeneous threshold `L`.
pub fn two_stage_inputs(l: usize, values: &[Val]) -> Vec<TwoStageInput> {
    values
        .iter()
        .map(|v| TwoStageInput { l, value: *v })
        .collect()
}

/// The consensus threshold `L = ⌈(n+1)/2⌉` of FLP.
pub fn consensus_threshold(n: usize) -> usize {
    n.div_ceil(2) + usize::from(n.is_multiple_of(2))
}

/// The k-set threshold `L = n − f` of Section VI.
///
/// # Panics
///
/// Panics if `f ≥ n`.
pub fn kset_threshold(n: usize, f: usize) -> usize {
    assert!(f < n, "need at least one live process");
    n - f
}

/// The number of distinct decisions the protocol guarantees:
/// `⌊n/L⌋` source components at most.
pub fn decision_bound(n: usize, l: usize) -> usize {
    n / l
}

/// Per-process state of the two-stage protocol.
#[derive(Debug, Hash)]
pub struct TwoStage {
    me: ProcessId,
    l: usize,
    value: Val,
    sent_stage1: bool,
    /// Stage-1 senders in arrival order (first `L − 1` freeze the list).
    heard1: Vec<ProcessId>,
    /// Frozen heard-list (stage 1 complete once set).
    my_heard: Option<ProcessSet>,
    /// Stage-2 data per process: `(value, heard)`. Includes self.
    infos: SenderMap<(Val, ProcessSet)>,
    decided: bool,
}

/// Both methods destructure every field, so a new field is a compile error
/// here rather than a stale copy. `clone_from` copies into `self`'s
/// buffers, which is what the exhaustive explorer's undo log does before
/// every step.
impl Clone for TwoStage {
    fn clone(&self) -> Self {
        let TwoStage {
            me,
            l,
            value,
            sent_stage1,
            heard1,
            my_heard,
            infos,
            decided,
        } = self;
        TwoStage {
            me: *me,
            l: *l,
            value: *value,
            sent_stage1: *sent_stage1,
            heard1: heard1.clone(),
            my_heard: *my_heard,
            infos: infos.clone(),
            decided: *decided,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let TwoStage {
            me,
            l,
            value,
            sent_stage1,
            heard1,
            my_heard,
            infos,
            decided,
        } = source;
        self.me = *me;
        self.l = *l;
        self.value = *value;
        self.sent_stage1 = *sent_stage1;
        self.heard1.clone_from(heard1);
        self.my_heard = *my_heard;
        self.infos.clone_from(infos);
        self.decided = *decided;
    }
}

impl TwoStage {
    /// The in-neighbour closure from this process over the known stage-2
    /// infos: `K = {me} ∪ heard(me) ∪ heard(heard(me)) ∪ …`. Returns
    /// `Some(K)` when every member's info is known (closure complete).
    fn closure<const W: usize>(&self) -> Option<WideSet<W>> {
        // kset-lint: allow(unchecked-capacity): self.me is a process of a system that fits W limbs (see `decision`), so the singleton cannot overflow
        let mut k = WideSet::singleton(self.me);
        let mut frontier = k;
        while !frontier.is_empty() {
            let mut heard = WideSet::new();
            for p in frontier {
                heard |= narrow(self.infos.get(p)?.1); // info missing: not closed yet
            }
            frontier = heard - k;
            k |= heard;
        }
        Some(k)
    }

    /// The heard-list of `p`, empty while its info is unknown.
    fn heard<const W: usize>(&self, p: ProcessId) -> WideSet<W> {
        self.infos.get(p).map_or(WideSet::new(), |i| narrow(i.1))
    }

    /// The decision once the closure is complete: the proposal of the
    /// smallest member of a source component of the known stage-one graph.
    /// In a system of `n ≤ 64` processes every set fits one limb, so the
    /// rule runs on one-limb sets there; wider systems run it at the full
    /// [`ProcessSet`] width.
    fn decision(&self, n: usize) -> Option<Val> {
        let c = if n <= WideSet::<1>::CAPACITY {
            chosen_source_min_one_limb(self.closure()?, |p| self.heard(p))
        } else {
            chosen_source_min(self.closure()?, |p| self.heard(p))
        }?;
        self.infos.get(c).map(|i| i.0)
    }
}

/// The first `W` limbs of `s`: all of it when its members are below
/// `W × 64`, as every set of a system that fits `W` limbs is.
fn narrow<const W: usize>(s: ProcessSet) -> WideSet<W> {
    debug_assert!(
        s.limbs()[W.min(PSET_LIMBS)..].iter().all(|&limb| limb == 0),
        "{s} does not fit {W} limbs"
    );
    WideSet::from_limbs(std::array::from_fn(|i| s.limbs()[i]))
}

/// The two-stage decision rule (see the module docs): the smallest member
/// of `k` that lies in a source component of the stage-one graph restricted
/// to `k`, where an edge `u → p` means `u ∈ heard(p)`. Returns `None` only
/// when `k` is empty.
///
/// `heard` is called once per member of `k`; members it names outside `k`
/// are ignored. For the closure `K` of a process, the answer is the
/// minimum of `kset_graph::chosen_source_component` of that process.
///
/// ```
/// use kset_core::algorithms::two_stage::chosen_source_min;
/// use kset_sim::{ProcessId, ProcessSet};
///
/// let pid = ProcessId::new;
/// // p0 and p1 hear each other, p2 hears p1, p3 hears p2: the one source
/// // component is {p0, p1}.
/// let heard = |p: ProcessId| -> ProcessSet {
///     match p.index() {
///         0 => [pid(1)].into(),
///         1 => [pid(0)].into(),
///         i => [pid(i - 1)].into(),
///     }
/// };
/// let k: ProcessSet = (0..4).map(pid).collect();
/// assert_eq!(chosen_source_min(k, heard), Some(pid(0)));
/// // Without p0, p1 alone is the source.
/// let k: ProcessSet = (1..4).map(pid).collect();
/// assert_eq!(chosen_source_min(k, heard), Some(pid(1)));
/// ```
pub fn chosen_source_min(
    k: ProcessSet,
    heard: impl Fn(ProcessId) -> ProcessSet,
) -> Option<ProcessId> {
    // The in- and out-set rows live in one buffer per thread, taken for
    // the call: a `heard` that calls back in gets a fresh one.
    let mut rows = ROWS.take();
    rows.clear();
    rows.resize(2 * row_count(k), ProcessSet::new());
    let chosen = source_min_in(k, heard, &mut rows);
    ROWS.set(rows);
    chosen
}

/// [`chosen_source_min`] on one-limb sets, which hold the processes of a
/// system of at most 64: the same rule and answers, on an eighth of the
/// width, with rows on the stack.
///
/// ```
/// use kset_core::algorithms::two_stage::chosen_source_min_one_limb;
/// use kset_sim::{ProcessId, WideSet};
///
/// let pid = ProcessId::new;
/// // p1 hears p0 and p0 hears p2, which is outside k: the source component
/// // of G[k] is {p0}.
/// let heard = |p: ProcessId| -> WideSet<1> {
///     match p.index() {
///         1 => [pid(0)].into(),
///         _ => [pid(2)].into(),
///     }
/// };
/// let k: WideSet<1> = [pid(0), pid(1)].into();
/// assert_eq!(chosen_source_min_one_limb(k, heard), Some(pid(0)));
/// ```
pub fn chosen_source_min_one_limb(
    k: WideSet<1>,
    heard: impl Fn(ProcessId) -> WideSet<1>,
) -> Option<ProcessId> {
    let mut rows = [WideSet::new(); 2 * WideSet::<1>::CAPACITY];
    let len = row_count(k);
    source_min_in(k, heard, &mut rows[..2 * len])
}

thread_local! {
    /// The row buffer of [`chosen_source_min`].
    static ROWS: std::cell::Cell<Vec<ProcessSet>> = const { std::cell::Cell::new(Vec::new()) };
}

/// The rows each half of a row buffer needs for `k`: one per id up to its
/// largest member.
fn row_count<const W: usize>(k: WideSet<W>) -> usize {
    k.iter().last().map_or(0, |p| p.index() + 1)
}

/// The decision rule on `rows`, empty on entry: the first half becomes the
/// in-sets of `G[k]` and the second half its out-sets, each indexed by
/// process id.
fn source_min_in<const W: usize>(
    k: WideSet<W>,
    heard: impl Fn(ProcessId) -> WideSet<W>,
    rows: &mut [WideSet<W>],
) -> Option<ProcessId> {
    let (ins, outs) = rows.split_at_mut(rows.len() / 2);
    for p in k {
        let from = heard(p) & k;
        ins[p.index()] = from;
        for u in from {
            outs[u.index()].insert(p);
        }
    }
    let mut non_source = WideSet::new();
    for c in k {
        if non_source.contains(c) {
            continue;
        }
        let down = reach(c, outs, k);
        if reach(c, ins, down).is_subset(down) {
            return Some(c);
        }
        non_source |= down;
    }
    None
}

/// The members reachable from `c` along `edges`, `c` included. The walk
/// stops as soon as it leaves `within`, so the result is a subset of
/// `within` iff the whole reachable set is.
fn reach<const W: usize>(c: ProcessId, edges: &[WideSet<W>], within: WideSet<W>) -> WideSet<W> {
    // kset-lint: allow(unchecked-capacity): c is a member of a WideSet<W>, so it is below the capacity
    let mut seen = WideSet::singleton(c);
    let mut frontier = seen;
    while !frontier.is_empty() && seen.is_subset(within) {
        let mut next = WideSet::new();
        for u in frontier {
            next |= edges[u.index()];
        }
        frontier = next - seen;
        seen |= next;
    }
    seen
}

impl ScenarioProcess for TwoStage {
    /// The two-stage protocol at a scenario's model point: the waiting
    /// threshold is the k-set threshold `L = n − f` of Section VI, so a
    /// Theorem 8 favourable-side scenario compiles to the protocol that
    /// solves it.
    fn scenario_inputs(scenario: &Scenario) -> Vec<TwoStageInput> {
        two_stage_inputs(kset_threshold(scenario.n, scenario.f), &scenario.inputs)
    }
}

impl Process for TwoStage {
    type Msg = TwoStageMsg;
    type Input = TwoStageInput;
    type Output = Val;
    type Fd = ();

    fn init(info: ProcessInfo, input: TwoStageInput) -> Self {
        assert!(input.l >= 1 && input.l <= info.n, "need 1 ≤ L ≤ n");
        TwoStage {
            me: info.id,
            l: input.l,
            value: input.value,
            sent_stage1: false,
            heard1: Vec::new(),
            my_heard: None,
            infos: SenderMap::with_capacity(info.n),
            decided: false,
        }
    }

    fn step(
        &mut self,
        delivered: &[Envelope<TwoStageMsg>],
        _fd: Option<&()>,
        effects: &mut Effects<TwoStageMsg, Val>,
    ) {
        if !self.sent_stage1 {
            self.sent_stage1 = true;
            effects.broadcast_others(TwoStageMsg::Stage1);
        }
        for env in delivered {
            if env.src == self.me {
                continue;
            }
            match &env.payload {
                TwoStageMsg::Stage1 => {
                    if self.my_heard.is_none() && !self.heard1.contains(&env.src) {
                        self.heard1.push(env.src);
                    }
                }
                TwoStageMsg::Stage2 { value, heard } => {
                    self.infos
                        .entry_or_insert_with(env.src, || (*value, *heard));
                }
            }
        }
        // Freeze the heard-list at the first L−1 distinct stage-1 senders
        // and enter stage 2.
        if self.my_heard.is_none() && self.heard1.len() >= self.l.saturating_sub(1) {
            let frozen: ProcessSet = self.heard1.iter().take(self.l - 1).copied().collect();
            self.my_heard = Some(frozen);
            self.infos.insert(self.me, (self.value, frozen));
            effects.broadcast_others(TwoStageMsg::Stage2 {
                value: self.value,
                heard: frozen,
            });
        }
        // Decide once the in-neighbour closure is complete.
        if !self.decided {
            if let Some(value) = self.decision(effects.info().n) {
                self.decided = true;
                effects.decide(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{distinct_proposals, KSetTask};
    use kset_sim::sched::random::SeededRandom;
    use kset_sim::sched::round_robin::RoundRobin;
    use kset_sim::{CrashPlan, RunReport, Simulation};

    fn run_two_stage(
        l: usize,
        values: &[Val],
        plan: CrashPlan,
        seed: Option<u64>,
    ) -> RunReport<Val> {
        let inputs = two_stage_inputs(l, values);
        let mut sim: Simulation<TwoStage, _> = Simulation::new(inputs, plan);
        match seed {
            None => sim.run_to_report(&mut RoundRobin::new(), 100_000),
            Some(s) => {
                sim.run_to_report(&mut SeededRandom::new(s).with_deliver_percent(80), 500_000)
            }
        }
    }

    #[test]
    fn clone_from_equals_clone() {
        use kset_sim::explore::{explore, Branching, ExploreConfig};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let fingerprint = |s: &TwoStage| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            (format!("{s:?}"), h.finish())
        };
        // Every process state of every configuration a small n = 3
        // exploration visits.
        let sim: Simulation<TwoStage, _> = Simulation::new(
            two_stage_inputs(2, &distinct_proposals(3)),
            CrashPlan::none(),
        );
        let config = ExploreConfig {
            max_depth: 14,
            max_states: 10_000,
            branching: Branching::NoneOrAll,
        };
        let mut states = Vec::new();
        let report = explore(&sim, &config, |s| {
            states.extend(ProcessId::all(3).map(|p| s.state(p).clone()));
            Ok(())
        });
        assert!(report.verified());
        assert!(states.len() > 700, "{} states", states.len());
        // Each cloned onto an unrelated state: another process's, further
        // along or not as far.
        for (i, source) in states.iter().enumerate() {
            let mut copy = states[(i + states.len() / 2 + 1) % states.len()].clone();
            copy.clone_from(source);
            assert_eq!(fingerprint(&copy), fingerprint(&source.clone()));
            assert_eq!(fingerprint(&copy), fingerprint(source));
        }
    }

    #[test]
    fn consensus_no_crashes() {
        let n = 5;
        let l = consensus_threshold(n);
        let values = distinct_proposals(n);
        let report = run_two_stage(l, &values, CrashPlan::none(), None);
        let v = KSetTask::consensus(n).judge(&values, &report);
        assert!(v.holds(), "{v}");
    }

    #[test]
    fn consensus_with_initial_crashes() {
        // n = 5, f = 2 (minority): L = 3.
        let n = 5;
        let l = consensus_threshold(n);
        let values = distinct_proposals(n);
        let plan = CrashPlan::initially_dead([ProcessId::new(1), ProcessId::new(4)]);
        let report = run_two_stage(l, &values, plan, None);
        let v = KSetTask::consensus(n).judge(&values, &report);
        assert!(v.holds(), "{v}");
    }

    #[test]
    fn consensus_threshold_values() {
        // Uniqueness of the source component needs 2L > n: two source
        // components are disjoint and each has ≥ δ + 1 = L members.
        for n in 1..20 {
            let l = consensus_threshold(n);
            assert!(2 * l > n, "n={n} L={l}");
            assert!(l <= n, "n={n} L={l}");
        }
    }

    #[test]
    fn kset_bound_holds_under_random_schedules() {
        // n = 6, f = 4 initial crashes, L = 2: at most ⌊6/2⌋ = 3 decisions.
        let n = 6;
        let f = 4;
        let l = kset_threshold(n, f);
        let k = decision_bound(n, l);
        assert_eq!(k, 3);
        let values = distinct_proposals(n);
        for seed in 0..10 {
            let dead: Vec<ProcessId> = (0..f).map(|i| ProcessId::new(5 - i)).collect();
            let report = run_two_stage(l, &values, CrashPlan::initially_dead(dead), Some(seed));
            let verdict = KSetTask::new(n, k).judge(&values, &report);
            assert!(verdict.holds(), "seed {seed}: {verdict}");
        }
    }

    #[test]
    fn kset_bound_holds_past_one_limb() {
        // n = 130 spans three 64-bit limbs of a ProcessSet. With f initially
        // dead, spread over the limbs, L = n − f allows ⌊n/L⌋ decisions.
        let n = 130;
        let values = distinct_proposals(n);
        for (f, seed) in [(0, 1), (65, 2), (100, 3), (129, 4)] {
            let l = kset_threshold(n, f);
            let k = decision_bound(n, l);
            let dead: Vec<ProcessId> = (0..f).map(|i| ProcessId::new(i * 7 % n)).collect();
            let report = run_two_stage(l, &values, CrashPlan::initially_dead(dead), Some(seed));
            let verdict = KSetTask::new(n, k).judge(&values, &report);
            assert!(verdict.holds(), "f = {f}, L = {l}: {verdict}");
        }
    }

    #[test]
    fn fully_isolated_processes_decide_own_values() {
        // L = 1: nobody waits for anyone; every process decides its own
        // value (n-set agreement, the wait-free degenerate case).
        let n = 4;
        let values = distinct_proposals(n);
        let report = run_two_stage(1, &values, CrashPlan::none(), None);
        assert_eq!(report.distinct_decisions.len(), n);
        for (i, d) in report.decisions.iter().enumerate() {
            assert_eq!(*d, Some(values[i]));
        }
    }

    #[test]
    fn decision_is_minimum_id_of_source_component() {
        // No crashes, round-robin: everyone hears from everyone quickly;
        // the single source component contains p1, so all decide x1.
        let n = 4;
        let l = kset_threshold(n, 1);
        let values = vec![40, 10, 20, 30];
        let report = run_two_stage(l, &values, CrashPlan::none(), None);
        assert!(report.all_correct_decided());
        assert_eq!(report.distinct_decisions.len(), 1);
    }

    #[test]
    fn single_process_system() {
        let report = run_two_stage(1, &[7], CrashPlan::none(), None);
        assert_eq!(report.decisions, vec![Some(7)]);
    }

    #[test]
    fn validity_always_holds() {
        let n = 6;
        let values: Vec<Val> = vec![100, 200, 300, 400, 500, 600];
        for f in 0..n {
            let l = kset_threshold(n, f);
            let dead: Vec<ProcessId> = (0..f).map(ProcessId::new).collect();
            let report = run_two_stage(l, &values, CrashPlan::initially_dead(dead), Some(f as u64));
            for d in report.distinct_decisions.iter() {
                assert!(values.contains(d));
            }
        }
    }

    #[test]
    fn theorem8_borderline_f_still_works() {
        // Theorem 8: solvable iff kn > (k+1)f. Take n = 6, k = 2:
        // f = 3 gives 12 > 9 ✓ (solvable), L = 3, bound ⌊6/3⌋ = 2 = k.
        let n = 6;
        let k = 2;
        let f = 3;
        assert!(k * n > (k + 1) * f);
        let l = kset_threshold(n, f);
        assert_eq!(decision_bound(n, l), k);
        let values = distinct_proposals(n);
        for seed in 0..10 {
            let dead: Vec<ProcessId> = (0..f).map(|i| ProcessId::new(n - 1 - i)).collect();
            let report = run_two_stage(l, &values, CrashPlan::initially_dead(dead), Some(seed));
            let verdict = KSetTask::new(n, k).judge(&values, &report);
            assert!(verdict.holds(), "seed {seed}: {verdict}");
        }
    }
}
