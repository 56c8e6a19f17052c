//! Determinism of the discrete-event substrate, observed end to end: two
//! timed runs from identical seeds must emit **byte-identical** Observer
//! event streams — same events, same order, same payload fingerprints —
//! while a different latency seed perturbs the stream. (The heap-level
//! half of the claim — same-timestamp events pop in insertion order —
//! lives next to the heap in `des::heap`.)
//!
//! Two runs of one build cannot notice a change in the engine's push
//! order, so this file also pins the digest of a fixed family of seeded
//! timed runs as a constant: a change to the event stream of any of them
//! fails here, whichever commit it lands in. And it replays a timed crash
//! at the very end of virtual time, which must strike and let the drive
//! return.

use std::collections::BTreeSet;
use std::hash::Hasher;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use kset_sim::des::{DesEngine, Latency, VirtualTime};
use kset_sim::observe::{
    CrashEvent, DecideEvent, DeliverEvent, FdSampleEvent, HaltEvent, Observer, SendEvent, StepEvent,
};
use kset_sim::scenario::ScenarioProcess;
use kset_sim::{
    CrashPlan, Effects, Engine, Envelope, Process, ProcessId, ProcessInfo, Scenario, Simulation,
    StableHasher, StopReason,
};

/// Broadcasts its input once, then decides the minimum it has seen after
/// hearing from everyone it ever will.
#[derive(Debug, Clone, Hash)]
struct MinFlood {
    n: usize,
    seen: BTreeSet<u32>,
    sent: bool,
}

impl Process for MinFlood {
    type Msg = u32;
    type Input = u32;
    type Output = u32;
    type Fd = ();

    fn init(info: ProcessInfo, input: u32) -> Self {
        MinFlood {
            n: info.n,
            seen: BTreeSet::from([input]),
            sent: false,
        }
    }

    fn step(
        &mut self,
        delivered: &[Envelope<u32>],
        _fd: Option<&()>,
        effects: &mut Effects<u32, u32>,
    ) {
        if !self.sent {
            self.sent = true;
            let mine = *self.seen.iter().next().unwrap();
            effects.broadcast(mine);
        }
        self.seen.extend(delivered.iter().map(|e| e.payload));
        if self.seen.len() >= self.n {
            effects.decide(*self.seen.iter().next().unwrap());
        }
    }
}

impl ScenarioProcess for MinFlood {
    fn scenario_inputs(scenario: &Scenario) -> Vec<u32> {
        scenario.inputs.iter().map(|&v| v as u32).collect()
    }
}

/// Renders every observed event into one growing text transcript, so two
/// runs compare as plain bytes.
#[derive(Debug, Default)]
struct Transcript(String);

impl Observer<u32> for Transcript {
    fn on_send(&mut self, e: &SendEvent) {
        self.0.push_str(&format!(
            "send t={} {}->{} id={:?} fp={:?} dropped={}\n",
            e.time, e.src, e.dst, e.id, e.payload_fp, e.dropped
        ));
    }
    fn on_deliver(&mut self, e: &DeliverEvent) {
        self.0.push_str(&format!(
            "deliver t={} {}->{} id={:?} fp={:?}\n",
            e.time, e.src, e.dst, e.id, e.payload_fp
        ));
    }
    fn on_step(&mut self, e: &StepEvent) {
        self.0.push_str(&format!(
            "step t={} {} local={} state={:#x} in={} out={}\n",
            e.time, e.pid, e.local_step, e.state_fp, e.delivered, e.sent
        ));
    }
    fn on_crash(&mut self, e: &CrashEvent) {
        self.0.push_str(&format!(
            "crash t={} {} after_step={}\n",
            e.time, e.pid, e.after_step
        ));
    }
    fn on_decide(&mut self, e: &DecideEvent<u32>) {
        self.0
            .push_str(&format!("decide t={} {} v={}\n", e.time, e.pid, e.value));
    }
    fn on_halt(&mut self, e: &HaltEvent) {
        self.0.push_str(&format!(
            "halt steps={} stop={:?} units={}\n",
            e.status.steps, e.status.stop, e.units
        ));
    }
}

fn inputs(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i * 7 + 2).collect()
}

/// One observed timed run — jittered latency, a GST window, a mid-run
/// strike and a detector cadence all in play — rendered to text.
fn transcript_of(seed: u64) -> String {
    let n = 6;
    let sim: Simulation<MinFlood, _> = Simulation::new(inputs(n), CrashPlan::none());
    let mut engine = DesEngine::timed(sim, Latency::uniform(2, 9), 13, seed)
        .with_crash_at(ProcessId::new(4), VirtualTime::new(20))
        .with_detector_cadence(5);
    let mut obs = Transcript::default();
    engine.drive_observed(10_000, &mut obs);
    assert!(engine.done(), "all non-faulty processes decide");
    obs.0
}

#[test]
fn identical_seeds_yield_byte_identical_event_streams() {
    let first = transcript_of(0xDE5_0001);
    let second = transcript_of(0xDE5_0001);
    assert!(!first.is_empty());
    assert!(first.contains("crash "), "the scheduled strike is observed");
    assert!(first.contains("decide "), "decisions are observed");
    assert_eq!(first, second, "same seed, same bytes");
}

#[test]
fn different_latency_seeds_perturb_the_stream() {
    // Both runs are individually deterministic, so this comparison is
    // stable — and with 2..9 jitter on every link the draws differ.
    let a = transcript_of(0xDE5_0001);
    let b = transcript_of(0xDE5_0002);
    assert_ne!(a, b, "the latency seed reaches the event stream");
}

/// Gossips its minimum: broadcasts its input on its first step and again
/// whenever it learns a smaller value, and decides that minimum once it
/// has seen `n` values or taken four steps — so detector pulses, which
/// wake it without messages, end its run too.
#[derive(Debug, Clone, Hash)]
struct Gossip {
    n: usize,
    seen: BTreeSet<u32>,
    steps: u32,
    decided: bool,
}

impl Process for Gossip {
    type Msg = u32;
    type Input = u32;
    type Output = u32;
    type Fd = ();

    fn init(info: ProcessInfo, input: u32) -> Self {
        Gossip {
            n: info.n,
            seen: BTreeSet::from([input]),
            steps: 0,
            decided: false,
        }
    }

    fn step(
        &mut self,
        delivered: &[Envelope<u32>],
        _fd: Option<&()>,
        effects: &mut Effects<u32, u32>,
    ) {
        let before = self.seen.first().copied();
        self.seen.extend(delivered.iter().map(|e| e.payload));
        let min = *self.seen.first().unwrap();
        self.steps += 1;
        if self.steps == 1 || Some(min) != before {
            effects.broadcast(min);
        }
        if !self.decided && (self.seen.len() >= self.n || self.steps >= 4) {
            self.decided = true;
            effects.decide(min);
        }
    }
}

/// Folds every observed event into one FNV-1a digest: its kind and every
/// field except the `fingerprint` values, which come from the toolchain's
/// `DefaultHasher` and may change between Rust releases. Times, ids,
/// senders, receivers and counts pin the order of the stream.
struct StreamDigest(StableHasher);

impl StreamDigest {
    fn put(&mut self, fields: &[u64]) {
        for &x in fields {
            self.0.write_u64(x);
        }
    }
}

fn pid(p: ProcessId) -> u64 {
    p.index() as u64
}

impl Observer<u32> for StreamDigest {
    fn on_send(&mut self, e: &SendEvent) {
        let id = e.id.map_or(u64::MAX, |id| id.raw());
        self.put(&[
            1,
            e.time.raw(),
            pid(e.src),
            pid(e.dst),
            id,
            e.dropped as u64,
        ]);
    }
    fn on_deliver(&mut self, e: &DeliverEvent) {
        let id = e.id.map_or(u64::MAX, |id| id.raw());
        self.put(&[2, e.time.raw(), pid(e.src), pid(e.dst), id]);
    }
    fn on_fd_sample(&mut self, e: &FdSampleEvent) {
        self.put(&[3, e.time.raw(), pid(e.pid), e.fd_fp.is_some() as u64]);
    }
    fn on_step(&mut self, e: &StepEvent) {
        self.put(&[
            4,
            e.time.raw(),
            pid(e.pid),
            e.local_step,
            e.delivered as u64,
            e.sent as u64,
        ]);
    }
    fn on_crash(&mut self, e: &CrashEvent) {
        self.put(&[5, e.time.raw(), pid(e.pid), e.after_step as u64]);
    }
    fn on_decide(&mut self, e: &DecideEvent<u32>) {
        self.put(&[6, e.time.raw(), pid(e.pid), u64::from(e.value)]);
    }
    fn on_halt(&mut self, e: &HaltEvent) {
        let stop = match e.status.stop {
            StopReason::AllCorrectDecided => 0,
            StopReason::SchedulerDone => 1,
            StopReason::StepLimit => 2,
        };
        self.put(&[7, e.status.steps, stop, e.units]);
    }
}

/// SplitMix64: the per-run parameters of the pinned family.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives run `(n, variant, rep)` of the pinned family to `obs`, then
/// keeps stepping past the drive's stop until the heap drains, so the
/// arrivals, strikes and pulses left after it are in the stream too.
///
/// Bit 0 of `variant` (0..8) picks uniform over fixed latency, bit 1 a
/// GST, bit 2 the detector cadence; `(n + variant + rep) % 3` picks an
/// initially dead process (1), timed crashes (2), or both (0). The timed
/// crashes strike at one instant, two of them when that leaves a process
/// correct, and on about a fifth of the runs that instant is `t = 1`,
/// the first wave's. `rep` reseeds everything else.
fn pinned_run(n: usize, variant: u64, rep: u64, obs: &mut StreamDigest) {
    let r = mix(((n as u64) << 16) | (rep << 8) | variant);
    let latency = if variant & 1 == 1 {
        let lo = 1 + r % 3;
        Latency::uniform(lo, lo + (r >> 8) % 9)
    } else {
        Latency::fixed(1 + r % 4)
    };
    let gst = if variant & 2 == 2 {
        3 + (r >> 16) % 20
    } else {
        0
    };
    let layout = (n as u64 + variant + rep) % 3;
    let dead = ProcessId::new((r >> 24) as usize % n);
    let (plan, dead_count) = if layout != 2 {
        (CrashPlan::initially_dead([dead]), 1)
    } else {
        (CrashPlan::none(), 0)
    };
    let inputs = (0..n as u64).map(|i| (mix(r ^ i) % 50) as u32).collect();
    let sim: Simulation<Gossip, _> = Simulation::new(inputs, plan);
    let mut engine = DesEngine::timed(sim, latency, gst, r);
    if layout != 1 {
        let at = if (r >> 32).is_multiple_of(5) {
            1
        } else {
            2 + (r >> 40) % 12
        };
        for k in 1..=2.min(n - 1 - dead_count) {
            let victim = ProcessId::new((dead.index() + k) % n);
            engine.schedule_crash(victim, VirtualTime::new(at));
        }
    }
    if variant & 4 == 4 {
        engine = engine.with_detector_cadence(1 + (r >> 48) % 5);
    }
    engine.drive_observed(400, obs);
    let mut extra = 0;
    while extra < 400 && engine.advance_observed(obs) {
        extra += 1;
    }
    obs.put(&[8, engine.now().raw(), engine.units()]);
}

/// The digest of the pinned family's event streams, computed before the
/// engine lost its component layer. A change of this constant is a change
/// of the discrete-event substrate's observable behaviour.
const PINNED_STREAM_DIGEST: u64 = 0x2654_1c77_9b61_1d8c;

#[test]
fn timed_event_streams_match_the_pinned_digest() {
    let mut digest = StreamDigest(StableHasher::new());
    for n in 2..=10 {
        for variant in 0..8 {
            for rep in 0..4 {
                pinned_run(n, variant, rep, &mut digest);
            }
        }
    }
    assert_eq!(
        digest.0.finish(),
        PINNED_STREAM_DIGEST,
        "the timed event stream moved: {:#018x}",
        digest.0.finish()
    );
}

/// A timed crash at the last instant of virtual time strikes like any
/// other. Taking what is due by an exclusive bound one past `now` misses
/// it — one past `u64::MAX` saturates to `u64::MAX` — and the engine then
/// requeues and pops the crash forever without taking a unit, so a
/// regression fails here after ten seconds instead of hanging the suite.
#[test]
fn a_crash_at_the_end_of_time_strikes() {
    let line = "scenario n 3 f 2 k 1 rounds 3 inputs 0,1,2 dead 2 \
                crashes 0@18446744073709551615>- schedule timed:1..1,0,0 detector none units 184";
    let scenario = Scenario::parse_line(line).expect("the line parses");
    scenario.validate().expect("the line validates");
    let mut engine = scenario.to_des::<MinFlood>().expect("the line compiles");
    let (done, finished) = std::sync::mpsc::channel();
    let drive = std::thread::spawn(move || {
        let mut obs = Transcript::default();
        let status = engine.drive_observed(1_000, &mut obs);
        let _ = done.send(());
        (status, engine.now(), obs.0)
    });
    // A returned drive signals, a panicked one drops the sender; only a
    // hung one times out, and only that thread is left unjoined.
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(10)) {
        panic!("the drive did not return within ten seconds");
    }
    let (status, now, transcript) = drive.join().expect("the drive does not panic");
    assert_eq!(status.stop, StopReason::SchedulerDone);
    assert_eq!(
        now,
        VirtualTime::new(u64::MAX),
        "the strike is the last tick"
    );
    let crashes: Vec<&str> = transcript
        .lines()
        .filter(|l| l.starts_with("crash "))
        .collect();
    assert_eq!(
        crashes,
        [
            "crash t=t0 p3 after_step=false",
            "crash t=t4 p1 after_step=true"
        ],
        "p3 is dead from the start; p1 (index 0) is struck after the four steps"
    );
}
