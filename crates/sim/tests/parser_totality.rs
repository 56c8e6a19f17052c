//! Parser totality under byte mutation: the scenario-line parser and both
//! shard-file parsers answer every input with a value or a typed error,
//! never a panic, and every value they accept survives a render/parse
//! round trip unchanged.
//!
//! The inputs are rendered scenario lines and shard files. Each case
//! mutates one of them by inserting, deleting, replacing, truncating and
//! duplicating byte spans under a fixed seed, so a failure replays
//! exactly; the failure message prints the offending input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kset_sim::des::Latency;
use kset_sim::observe::EventCounts;
use kset_sim::sweep::{
    cell_seed, scenario_grid, CellRecord, Observation, PartialShardFile, ShardFile, ShardSpec,
    SweepHeader,
};
use kset_sim::{DetectorChoice, ProcessId, Scenario, ScenarioCrash, ScheduleFamily};

/// Spans the mutator splices in besides spans of the input itself: the
/// grammars' punctuation and keywords, and numbers at and past the
/// `ProcessSet` capacity and the integer widths.
const TOKENS: &[&str] = &[
    "0",
    "7",
    ",",
    ";",
    "|",
    ">",
    "@",
    ":",
    "..",
    "-",
    " ",
    "\n",
    "x",
    "511",
    "512",
    "600",
    "99999",
    "18446744073709551616",
    "0x",
    "obs",
    "cell",
    "end",
];

/// Applies one to three random span edits to `input`.
fn mutate(rng: &mut StdRng, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..=bytes.len());
        let end = (at + rng.gen_range(1..=8usize)).min(bytes.len());
        let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
        match rng.gen_range(0..5u32) {
            0 => {
                bytes.splice(at..at, token.iter().copied());
            }
            1 => {
                bytes.drain(at..end);
            }
            2 => {
                bytes.splice(at..end, token.iter().copied());
            }
            3 => bytes.truncate(at),
            _ => {
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` on `input`, failing the test with the input if it panics.
fn no_panic<T>(what: &str, input: &str, parse: impl FnOnce(&str) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| parse(input)))
        .unwrap_or_else(|_| panic!("{what} panicked on input {input:?}"))
}

fn scenario_lines() -> Vec<String> {
    let mut scenarios =
        scenario_grid(&[4, 8, 64], &[1, 2, 3], &[1, 2], 42).expect("grid axes are valid");
    let base = Scenario::favourable(6, 2, 2)
        .with_initially_dead(ProcessId::new(5))
        .with_crash(ScenarioCrash {
            pid: ProcessId::new(1),
            round: 1,
            receivers: [ProcessId::new(0), ProcessId::new(3)].into(),
        });
    scenarios.push(base.clone().with_schedule(ScheduleFamily::Async {
        seed: 7,
        deliver_percent: 50,
        fairness_window: 4,
    }));
    scenarios.push(base.clone().with_schedule(ScheduleFamily::Partitioned {
        blocks: vec![
            [0, 1, 2].map(ProcessId::new).into(),
            [3, 4].map(ProcessId::new).into(),
        ],
    }));
    scenarios.push(
        base.with_schedule(ScheduleFamily::Timed {
            latency: Latency::uniform(2, 9),
            gst: 50,
            seed: 1,
        })
        .with_detector(DetectorChoice::SigmaOmega { k: 2, tgst: 30 }),
    );
    scenarios.iter().map(Scenario::render_line).collect()
}

/// Complete shard files whose cells cycle through every observation kind
/// and none.
fn shard_files() -> Vec<String> {
    let observations = [
        None,
        Some(Observation::Decisions(vec![Some(3), None, Some(0)])),
        Some(Observation::distinct([4, 1, 9])),
        Some(Observation::Counts(EventCounts {
            sends: 12,
            dropped: 2,
            delivers: 9,
            fd_samples: 0,
            steps: 0,
            rounds: 2,
            crashes: 1,
            decides: 3,
            halts: 1,
        })),
    ];
    [ShardSpec::FULL, ShardSpec::new(1, 3).expect("1 < 3")]
        .into_iter()
        .map(|spec| {
            let header = SweepHeader::new("fuzz", 42, "ns=4,8;fs=1;ks=1", 8, spec);
            let records = header
                .range()
                .map(|index| CellRecord {
                    index,
                    n: 4,
                    f: 1,
                    k: 1,
                    seed: cell_seed(42, index),
                    digest: cell_seed(7, index),
                    obs: observations[index % observations.len()].clone(),
                })
                .collect();
            ShardFile { header, records }.render()
        })
        .collect()
}

/// Renders a partial as the writer would have left it: header and record
/// lines, no footer.
fn render_partial(partial: &PartialShardFile) -> String {
    let mut text = partial.header.render();
    for record in &partial.records {
        text.push_str(&record.render_line());
        text.push('\n');
    }
    text
}

#[test]
fn scenario_lines_survive_byte_mutation() {
    let lines = scenario_lines();
    let mut rng = StdRng::seed_from_u64(0x5ce0_a10e);
    let mut accepted = 0;
    for _ in 0..30_000 {
        let line = &lines[rng.gen_range(0..lines.len())];
        let input = mutate(&mut rng, line);
        if let Ok(sc) = no_panic("Scenario::parse_line", &input, Scenario::parse_line) {
            accepted += 1;
            assert_eq!(
                Scenario::parse_line(&sc.render_line()),
                Ok(sc),
                "round trip of {input:?}"
            );
        }
    }
    assert!(accepted > 0, "some mutants must stay parseable");
}

#[test]
fn shard_files_survive_byte_mutation() {
    let files = shard_files();
    let mut rng = StdRng::seed_from_u64(0x5a4d_f11e);
    let (mut complete, mut partial) = (0, 0);
    for _ in 0..6_000 {
        let file = &files[rng.gen_range(0..files.len())];
        let input = mutate(&mut rng, file);
        if let Ok(parsed) = no_panic("ShardFile::parse", &input, ShardFile::parse) {
            complete += 1;
            assert_eq!(
                ShardFile::parse(&parsed.render()).as_ref(),
                Ok(&parsed),
                "round trip of {input:?}"
            );
        }
        if let Ok(prefix) = no_panic("PartialShardFile::parse", &input, PartialShardFile::parse) {
            partial += 1;
            assert_eq!(
                PartialShardFile::parse(&render_partial(&prefix)).as_ref(),
                Ok(&prefix),
                "round trip of {input:?}"
            );
        }
    }
    assert!(
        complete > 0 && partial > 0,
        "some mutants must stay parseable"
    );
}
