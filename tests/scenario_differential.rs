//! Differential conformance between the three substrates: one scenario
//! description compiled to the step-level simulator, the round-level
//! lock-step executor, and the discrete-event engine must produce
//! equivalent runs under the synchronous schedule family — across the full
//! Theorem 8 border grid, under parallel and sequential sweeps alike — and
//! must *flag* (not panic on) divergence under asynchronous families. The
//! natively timed family is compared against the round executor directly:
//! fixed latency with `gst = 0` walks the exact round cadence.

use kset::core::algorithms::floodmin::FloodMin;
use kset::core::scenario::differential::{self, DiffReport};
use kset::core::scenario::RoundAdapter;
use kset::impossibility::theorem8_border_cells as border_cells;
use kset::sim::explore::{explore_scenario, Branching, ExploreConfig};
use kset::sim::observe::EventCounts;
use kset::sim::scenario::{Scenario, ScheduleFamily};
use kset::sim::sweep::{scenario_grid, sweep, sweep_seq};

/// What the timed leg guarantees under the lock-step family: its event
/// counters equal the round executor's in transmitted sends, crashes,
/// decides and delivers, and it takes as many steps as the step substrate.
/// The step substrate's delivers are not compared: eager round-robin
/// delivery hands a crashing process next-round messages that neither the
/// round executor nor the timed run delivers.
fn assert_des_matches(tag: &str, des: &EventCounts, lock: &EventCounts, sim: &EventCounts) {
    assert_eq!(
        des.transmitted(),
        lock.transmitted(),
        "{tag}: DES transmitted"
    );
    assert_eq!(des.crashes, lock.crashes, "{tag}: DES crashes");
    assert_eq!(des.decides, lock.decides, "{tag}: DES decides");
    assert_eq!(des.delivers, lock.delivers, "{tag}: DES delivers");
    assert_eq!(des.steps, sim.steps, "{tag}: DES steps");
}

#[test]
fn theorem8_border_grid_substrates_agree() {
    // Favourable side of the border: every scenario's lock-step compilation
    // and step-level compilation must agree on decisions, distinct counts
    // and termination — the two-substrate architecture as a tested
    // equivalence, not a trait coincidence.
    for cell in border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        assert!(scenario.is_lock_step());
        let report = differential::check::<FloodMin>(&scenario)
            .unwrap_or_else(|e| panic!("cell {}: {e}", cell.index));
        assert!(
            report.agrees(),
            "n={} f={} k={} seed={:#x}: {:?}",
            cell.n,
            cell.f,
            cell.k,
            cell.seed,
            report.divergences
        );
        assert!(report.sim.terminated && report.lockstep.terminated);
        assert_eq!(report.sim.distinct, report.lockstep.distinct);
        assert!(
            report.lockstep.k_agreement(cell.k),
            "FloodMin must reach k-agreement on the favourable side"
        );
        assert_eq!(report.lockstep.units, scenario.rounds as u64);
        // The third substrate: the timed engine at fixed latency 1 takes
        // one step per alive process per instant, so it decides like the
        // round executor and takes as many steps as the step substrate.
        assert!(report.des.terminated);
        assert_eq!(report.des.decisions, report.lockstep.decisions);
        assert_eq!(report.des.units, report.sim.units);
    }
}

#[test]
fn differential_parallel_sweep_equals_sequential() {
    // The differential check is a pure function of the scenario, so the
    // parallel sweep over a scenario grid must reproduce the sequential
    // pass bit for bit — reports included.
    let scenarios = scenario_grid(&[4, 6, 8], &[1, 2], &[1, 2], 7).expect("within capacity");
    assert!(!scenarios.is_empty());
    let worker = |_: usize, sc: &Scenario| -> DiffReport {
        differential::check::<FloodMin>(sc).expect("grid scenarios are valid")
    };
    let parallel = sweep(&scenarios, worker);
    let sequential = sweep_seq(&scenarios, worker);
    assert_eq!(parallel, sequential);
    for (sc, report) in scenarios.iter().zip(&parallel) {
        assert!(
            report.agrees(),
            "n={} f={} k={}: {:?}",
            sc.n,
            sc.f,
            sc.k,
            report.divergences
        );
    }
}

#[test]
fn observer_counts_agree_across_substrates_on_the_border_grid() {
    // The observation acceptance claim: one Observer impl (the event
    // counter) attached to the SAME scenario compiled to both substrates
    // under the lock-step family produces consistent observations —
    // transmitted sends, decisions (values included) and crashes agree
    // exactly, on every cell of the Theorem 8 border grid.
    use kset::core::scenario::differential::check_observed;
    use kset::core::Val;
    use kset::sim::observe::EventCounter;

    for cell in border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        let mut sim_counter: EventCounter<Val> = EventCounter::new();
        let mut lock_counter: EventCounter<Val> = EventCounter::new();
        let mut des_counter: EventCounter<Val> = EventCounter::new();
        let report = check_observed::<FloodMin>(
            &scenario,
            &mut sim_counter,
            &mut lock_counter,
            &mut des_counter,
        )
        .unwrap_or_else(|e| panic!("cell {}: {e}", cell.index));
        assert!(
            report.agrees(),
            "cell {}: {:?}",
            cell.index,
            report.divergences
        );

        let (sim, lock, des) = (
            sim_counter.counts(),
            lock_counter.counts(),
            des_counter.counts(),
        );
        let tag = format!("n={} f={} k={}", cell.n, cell.f, cell.k);
        assert_des_matches(&tag, &des, &lock, &sim);
        assert_eq!(
            des_counter.decisions_by_process(),
            lock_counter.decisions_by_process(),
            "{tag}: timed decided values per process"
        );
        // Border scenarios have no initially-dead processes, so even the
        // raw send counts (dropped ones included) line up.
        assert_eq!(sim.sends, lock.sends, "{tag}: sends");
        assert_eq!(sim.transmitted(), lock.transmitted(), "{tag}: transmitted");
        assert_eq!(sim.crashes, lock.crashes, "{tag}: crashes");
        assert_eq!(sim.crashes, cell.f as u64, "{tag}: exactly f crashes");
        assert_eq!(sim.decides, lock.decides, "{tag}: decide count");
        assert_eq!(
            sim_counter.decisions_by_process(),
            lock_counter.decisions_by_process(),
            "{tag}: decided values per process"
        );
        // The step substrate may consume messages that reach a buffer
        // before the crash the round executor expresses as "skip the
        // receive phase" — it can deliver more, never less.
        assert!(sim.delivers >= lock.delivers, "{tag}: deliver relation");
        // Substrate-specific units: steps on one side, rounds on the other.
        assert_eq!(lock.rounds, scenario.rounds as u64, "{tag}: rounds");
        assert_eq!(lock.steps, 0, "{tag}: no step events from the rounds side");
        assert_eq!(sim.rounds, 0, "{tag}: no round events from the steps side");
        assert_eq!((sim.halts, lock.halts), (1, 1), "{tag}: one halt each");
    }
}

/// A random favourable scenario on `n` processes: random f, k and inputs,
/// random distinct victims (one in eight initially dead), crash rounds and
/// receiver subsets. It may be invalid.
fn generated_scenario(n: usize, below: &mut impl FnMut(usize) -> usize) -> Scenario {
    use kset::sim::{ProcessId, ScenarioCrash};

    let f = below(n);
    let k = 1 + below(n.min(4));
    let inputs = (0..n).map(|_| below(2 * n) as u64).collect();
    let mut scenario = Scenario::favourable(n, f, k).with_inputs(inputs);
    let mut victims: Vec<usize> = (0..n).collect();
    for i in 0..below(f + 1) {
        victims.swap(i, i + below(n - i));
        let pid = ProcessId::new(victims[i]);
        if below(8) == 0 {
            scenario = scenario.with_initially_dead(pid);
        } else {
            let round = 1 + below(scenario.rounds);
            let receivers = (0..n)
                .filter(|_| below(2) == 0)
                .map(ProcessId::new)
                .collect();
            scenario = scenario.with_crash(ScenarioCrash {
                pid,
                round,
                receivers,
            });
        }
    }
    scenario
}

/// Runs a valid scenario on all three substrates with an event counter
/// attached and checks that they agree; a failure prints the scenario line
/// that replays it. Returns whether the scenario was valid.
fn substrates_agree_on(scenario: &Scenario) -> bool {
    use kset::core::scenario::differential::check_observed;
    use kset::core::Val;
    use kset::sim::observe::EventCounter;

    if scenario.validate().is_err() {
        return false;
    }
    let line = scenario.render_line();
    let mut sim_counter: EventCounter<Val> = EventCounter::new();
    let mut lock_counter: EventCounter<Val> = EventCounter::new();
    let mut des_counter: EventCounter<Val> = EventCounter::new();
    let report = check_observed::<FloodMin>(
        scenario,
        &mut sim_counter,
        &mut lock_counter,
        &mut des_counter,
    )
    .unwrap_or_else(|e| panic!("{line}: {e}"));
    assert!(report.agrees(), "{line}: {:?}", report.divergences);
    let (sim, lock, des) = (
        sim_counter.counts(),
        lock_counter.counts(),
        des_counter.counts(),
    );
    assert_eq!(sim.transmitted(), lock.transmitted(), "{line}: transmitted");
    assert_eq!(sim.crashes, lock.crashes, "{line}: crashes");
    assert_eq!(sim.decides, lock.decides, "{line}: decides");
    assert_des_matches(&line, &des, &lock, &sim);
    true
}

/// `count` generated scenarios with `n` drawn from `sizes` agree across
/// the substrates, and at least seven in eight of them are valid.
fn generated_family_agrees(seed: u64, count: usize, sizes: std::ops::RangeInclusive<usize>) {
    use kset::sim::sweep::cell_seed;

    // A fixed-seed stream: `below(bound)` is the next draw in `0..bound`.
    let mut drawn = 0usize;
    let mut below = |bound: usize| {
        drawn += 1;
        (cell_seed(seed, drawn) % bound as u64) as usize
    };
    let mut checked = 0usize;
    for _ in 0..count {
        let n = sizes.start() + below(sizes.end() - sizes.start() + 1);
        let scenario = generated_scenario(n, &mut below);
        checked += usize::from(substrates_agree_on(&scenario));
    }
    assert!(
        checked * 8 >= count * 7,
        "only {checked} of {count} generated scenarios valid"
    );
}

#[test]
fn generated_lock_step_scenarios_agree_across_substrates() {
    // Beyond the fixed border grid: 400 fixed-seed random favourable
    // scenarios with n ≤ 31.
    generated_family_agrees(0xd1ff, 400, 2..=31);
}

#[test]
fn generated_scenarios_across_the_first_limb_boundary_agree() {
    // n ∈ 62..=68: sender, receiver and crash sets straddle the first
    // 64-bit limb of ProcessSet.
    generated_family_agrees(0x11b0, 12, 62..=68);
}

#[test]
#[ignore = "≈ 25 s in release; the weekly bench-smoke workflow runs it"]
fn generated_scenarios_up_to_three_limbs_agree() {
    // n ∈ 62..=194: the first three limb boundaries.
    generated_family_agrees(0x31b0, 60, 62..=194);
}

#[test]
fn observer_counts_agree_exactly_without_crashes() {
    // With no crashes there is no in-flight edge: every event total the
    // counter tracks (deliveries included) is equal across substrates.
    use kset::core::scenario::differential::check_observed;
    use kset::core::Val;
    use kset::sim::observe::EventCounter;

    let scenario = Scenario::favourable(6, 2, 1);
    let mut sim_counter: EventCounter<Val> = EventCounter::new();
    let mut lock_counter: EventCounter<Val> = EventCounter::new();
    let mut des_counter: EventCounter<Val> = EventCounter::new();
    let report = check_observed::<FloodMin>(
        &scenario,
        &mut sim_counter,
        &mut lock_counter,
        &mut des_counter,
    )
    .expect("favourable scenario is valid");
    assert_des_matches(
        "favourable(6, 2, 1)",
        &des_counter.counts(),
        &lock_counter.counts(),
        &sim_counter.counts(),
    );
    assert!(report.agrees());
    let (sim, lock) = (sim_counter.counts(), lock_counter.counts());
    assert_eq!(sim.sends, lock.sends);
    assert_eq!((sim.dropped, lock.dropped), (0, 0));
    assert_eq!(sim.delivers, lock.delivers);
    assert_eq!(sim.decides, lock.decides);
    assert_eq!((sim.crashes, lock.crashes), (0, 0));
    assert_eq!(
        sim_counter.decisions_by_process(),
        lock_counter.decisions_by_process()
    );
}

#[test]
fn async_schedule_family_divergence_is_flagged_not_fatal() {
    // The deliberately asymmetric scenario: same model point, same crash
    // description, but an asynchronous schedule family. The step-level run
    // consumes incomplete round inboxes, so the substrates disagree — and
    // the report must carry that divergence instead of panicking.
    let base = border_cells(42).remove(2); // (n, k) = (8, 1), f = 4
    let mut diverged = 0usize;
    for seed in 0..16u64 {
        let scenario = Scenario::from_cell(&base).with_schedule(ScheduleFamily::Async {
            seed,
            deliver_percent: 20,
            fairness_window: 4,
        });
        let report = differential::check::<FloodMin>(&scenario)
            .expect("an async family is not a scenario error");
        assert!(!report.lock_step_family);
        // The round-level side is untouched by the schedule family and
        // still solves consensus.
        assert!(report.lockstep.k_agreement(1));
        assert!(report.lockstep.terminated);
        if !report.agrees() {
            diverged += 1;
        }
    }
    assert!(
        diverged > 0,
        "a 20%-delivery async family must diverge from lock-step on some seed"
    );
}

#[test]
fn explorer_refutes_floodmin_under_all_schedules() {
    // The explorer consumes a compiled scenario directly and quantifies
    // over ALL schedules: FloodMin's round structure only survives the
    // synchronous family, so exhaustive exploration finds a k-agreement
    // violation — the unfavourable side of the border, observed on the
    // same scenario value that the lock-step side solves.
    let scenario = Scenario::favourable(2, 1, 1).with_inputs(vec![3, 9]);
    let config = ExploreConfig {
        max_depth: 8,
        max_states: 50_000,
        branching: Branching::NoneOrAll,
    };
    let report = explore_scenario::<RoundAdapter<FloodMin>>(&scenario, &config, |sim| {
        let distinct: std::collections::BTreeSet<u64> =
            sim.decisions().iter().flatten().copied().collect();
        if distinct.len() > 1 {
            return Err(format!("consensus violated: {distinct:?}"));
        }
        Ok(())
    })
    .expect("valid scenario");
    let violation = report.violation.expect("a violating schedule exists");
    assert!(!violation.path.is_empty(), "the schedule is replayable");

    // The same scenario's lock-step compilation is safe — the explorer's
    // violation is a property of asynchrony, not of the algorithm.
    let diff = differential::check::<FloodMin>(&scenario).expect("valid scenario");
    assert!(diff.agrees());
    assert!(diff.lockstep.k_agreement(1));
}

#[test]
fn timed_fixed_latency_replays_the_round_executor() {
    // The timed family has no unit scheduler, so `differential::check`
    // rejects it — instead we compare it against the round executor
    // directly, exploiting the cadence fact pinned by the engine's own
    // tests: with fixed latency `d` and `gst = 0`, step `r` of every
    // process happens at virtual time `1 + (r-1)·d`, and a crash strike
    // scheduled at exactly that instant wins the same-instant tie. A
    // lock-step scenario whose round-`r` crash reaches *nobody* therefore
    // has a timed twin — the same crash expressed in virtual time — and
    // the two substrates must agree on every process's decision.
    use kset::core::scenario::to_lockstep;
    use kset::sim::des::Latency;
    use kset::sim::{Engine, ProcessId, ProcessSet, ScenarioCrash};

    let d: u64 = 4;
    for (n, f, k) in [(5usize, 2usize, 1usize), (6, 3, 2), (7, 3, 1)] {
        // Crash process j in round (j mod rounds) + 1 — staying inside the
        // scenario's round budget — with the final message reaching nobody.
        let rounds = f / k + 1;
        let crashes: Vec<ScenarioCrash> = (0..f)
            .map(|j| ScenarioCrash {
                pid: ProcessId::new(j),
                round: (j % rounds) + 1,
                receivers: ProcessSet::new(),
            })
            .collect();

        let mut lock_sc = Scenario::favourable(n, f, k);
        lock_sc.crashes = crashes.clone();
        let mut lock = to_lockstep::<FloodMin>(&lock_sc).expect("valid lock-step scenario");
        lock.drive(lock_sc.rounds as u64);

        let mut timed_sc = Scenario::favourable(n, f, k).with_schedule(ScheduleFamily::Timed {
            latency: Latency::fixed(d),
            gst: 0,
            seed: 0xC0FFEE,
        });
        timed_sc.crashes = crashes
            .iter()
            .map(|c| ScenarioCrash {
                pid: c.pid,
                // Round r → the virtual time of step r.
                round: 1 + (c.round - 1) * d as usize,
                receivers: ProcessSet::new(),
            })
            .collect();
        let mut des = timed_sc
            .to_des::<RoundAdapter<FloodMin>>()
            .expect("valid timed scenario");
        let status = des.drive(timed_sc.max_units);
        let tag = format!("n={n} f={f} k={k}");
        assert!(des.done(), "{tag}: timed run terminates ({status:?})");
        assert_eq!(
            des.decisions(),
            lock.decisions(),
            "{tag}: per-process decisions across the timed/round pair"
        );
        assert_eq!(des.distinct_decisions(), lock.distinct_decisions(), "{tag}");
        assert!(
            des.distinct_decisions().len() <= k,
            "{tag}: k-agreement on the timed substrate"
        );
    }
}

#[test]
fn timed_uniform_latency_terminates_and_is_seed_deterministic() {
    // Under jittered latencies the round cadence dissolves — steps consume
    // whatever arrived — so neither equality with the round executor nor
    // k-agreement is promised (FloodMin's round structure is exactly what
    // jitter breaks). What IS promised: the run terminates, every decision
    // is one of the proposals, and the whole outcome is a pure function of
    // the seed.
    use kset::sim::des::Latency;
    use kset::sim::Engine;

    for seed in 0..8u64 {
        let run = || {
            let scenario = Scenario::favourable(6, 2, 1).with_schedule(ScheduleFamily::Timed {
                latency: Latency::uniform(2, 9),
                gst: 11,
                seed,
            });
            let mut des = scenario
                .to_des::<RoundAdapter<FloodMin>>()
                .expect("valid timed scenario");
            des.drive(scenario.max_units);
            assert!(des.done(), "seed {seed}: the timed run terminates");
            des.decisions()
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second, "seed {seed}: reproducible decisions");
        for (i, d) in first.iter().enumerate() {
            let v = d.unwrap_or_else(|| panic!("seed {seed}: process {i} decided"));
            assert!(v < 6, "seed {seed}: decisions are proposals");
        }
    }
}

#[test]
fn invalid_scenarios_are_typed_errors_on_both_compilers() {
    let bad = Scenario::favourable(4, 1, 1).with_inputs(vec![1]);
    let sim_err = bad.to_sim::<RoundAdapter<FloodMin>>().unwrap_err();
    let lock_err = kset::core::scenario::to_lockstep::<FloodMin>(&bad).unwrap_err();
    assert_eq!(sim_err, lock_err, "one validation, two compilers");
    assert!(differential::check::<FloodMin>(&bad).is_err());
}
