//! The experiments binary: regenerates every border table of the paper,
//! and runs/merges sharded sweeps.
//!
//! ```sh
//! cargo run --release -p kset-bench --bin experiments          # all tables
//! cargo run --release -p kset-bench --bin experiments -- --e4  # one table
//!
//! # Sweep a whole catalog grid into a self-describing shard file; the
//! # scale grid runs through its batch kernel, 16 same-shape cells at a
//! # time …
//! experiments sweep --grid scale --out scale.txt
//! # … shard 1 of 3 of the border grid, on the same path …
//! experiments sweep --grid border --shard 1/3 --out border-1.txt
//! # … the scalar single-process reference, cell by cell, which the
//! # default path must reproduce byte for byte …
//! experiments sweep --grid border --seq --out border-seq.txt
//! # … and merge the shards, verifying exact coverage and (optionally)
//! # that the merged records equal an in-process sequential recompute.
//! experiments merge --out merged.txt --check-against-sequential \
//!     border-0.txt border-1.txt border-2.txt
//!
//! # A sweep killed mid-run leaves a valid partial (kset-sweep v2) file;
//! # resume recomputes only the owed cells and rewrites the completed
//! # file, byte-identical to an uninterrupted sweep.
//! experiments sweep --resume border-1.txt
//! ```
//!
//! The table flags are `--e1` … `--e7`; any other argument that is not a
//! subcommand is a usage error (exit 2). A sweep has two schedules: the
//! default, [`SweepGrid::run_range`](kset_bench::sweeps::SweepGrid::run_range),
//! which whole grids, shards and `--resume` all take, and `--seq`. The
//! merged file is **byte-identical** to the sequential one whenever the
//! shards cover the grid exactly — that identity is the shard-matrix
//! conformance gate in CI. Multi-host runs use the same path: each host
//! sweeps its shards, `merge` reassembles them, and `--resume` finishes a
//! shard whose host died mid-range. Grid names resolve through
//! [`kset_bench::sweeps`]; cells are citable as `(grid_seed, index)`.
//!
//! The table output is recorded in EXPERIMENTS.md; the "paper" columns are
//! the closed-form borders from the theorems, the "measured" columns come
//! from the simulator constructions. Agreement between the two is the
//! reproduction claim.

use kset_bench::{glyph, Table};
use kset_core::algorithms::floodmin::{floodmin_rounds, FloodMin};
use kset_core::algorithms::two_stage::{decision_bound, kset_threshold};
use kset_core::sync::{run_sync, RoundCrash};
use kset_core::task::distinct_proposals;
use kset_graph::{
    check_lemma6, check_lemma7, check_source_count_bound, source_components, stage_one_graph,
};
use kset_impossibility::theorem10::demo as theorem10_demo;
use kset_impossibility::theorem2::{demo_decide_own, demo_two_stage};
use kset_impossibility::theorem8::{border_demo, possibility_demo};
use kset_impossibility::{
    bouzid_travers_impossible, corollary13_solvable, theorem10_impossible, theorem2_impossible,
    theorem8_solvable, Theorem1Outcome,
};
use kset_sim::sweep::sweep;
use kset_sim::ProcessId;

/// The table flags, in print order.
const TABLES: [(&str, fn()); 7] = [
    ("--e1", e1_theorem2),
    ("--e2", e2_theorem8_possible),
    ("--e3", e3_theorem8_border),
    ("--e4", e4_theorem10),
    ("--e5", e5_corollary13),
    ("--e6", e6_graph_lemmas),
    ("--e7", e7_discrete_event),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => return sweep_cmd(&args[1..]),
        Some("merge") => return merge_cmd(&args[1..]),
        _ => {}
    }
    if let Some(other) = args
        .iter()
        .find(|a| TABLES.iter().all(|(flag, _)| flag != a))
    {
        usage(&format!("unknown argument {other:?}"));
    }
    for (flag, table) in TABLES {
        if args.is_empty() || args.iter().any(|a| a == flag) {
            table();
        }
    }
}

/// E1 — Theorem 2: the partially synchronous border, with the Theorem 1
/// checker run against two candidates at every impossible grid point, and
/// the synchronous contrast column (FloodMin).
fn e1_theorem2() {
    let mut t = Table::new(
        "E1 — Theorem 2 border: k ≤ (n−1)/(n−f) (proc sync, comm async)",
        &[
            "n",
            "f",
            "k",
            "paper: impossible",
            "checker vs DecideOwn",
            "checker vs two-stage(L=n−f)",
            "sync point solvable (FloodMin)",
        ],
    );
    for n in 4..=8usize {
        for (f, k) in [(n - 1, 2), (n - 2, 2), (n - 1, 3), (n - 2, 3)] {
            if k >= n {
                continue;
            }
            let impossible = theorem2_impossible(n, f, k);
            let naive = demo_decide_own(n, f, k, 100_000)
                .map(|d| outcome_tag(&d.analysis.outcome, d.refuted()))
                .unwrap_or_else(|| "n/a (solvable)".into());
            let twostage = demo_two_stage(n, f, k, 200_000)
                .map(|d| outcome_tag(&d.analysis.outcome, d.refuted()))
                .unwrap_or_else(|| "n/a (solvable)".into());
            // Synchronous contrast: FloodMin on the same (n, f, k).
            let values = distinct_proposals(n);
            let crashes: Vec<RoundCrash> = (0..f)
                .map(|i| RoundCrash {
                    round: i / k + 1,
                    pid: ProcessId::new(i),
                    receivers: [ProcessId::new((i + 1) % n)].into(),
                })
                .collect();
            let out = run_sync(
                FloodMin::system(&values, f, k),
                floodmin_rounds(f, k),
                &crashes,
            );
            let sync_ok = out.distinct_decisions().len() <= k;
            t.row(&[
                n.to_string(),
                f.to_string(),
                k.to_string(),
                glyph(impossible).into(),
                naive,
                twostage,
                glyph(sync_ok).into(),
            ]);
        }
    }
    println!("{t}");
}

fn outcome_tag(outcome: &Theorem1Outcome, refuted: bool) -> String {
    let tag = match outcome {
        Theorem1Outcome::DirectViolation { distinct, k } => {
            format!("violated ({distinct}>{k})")
        }
        Theorem1Outcome::ReductionEstablished => "reduced to ⟨D̄⟩-consensus".into(),
        Theorem1Outcome::ConditionAFailed { .. } => "not flagged".into(),
    };
    format!("{tag}{}", if refuted { " ⇒ refuted" } else { "" })
}

/// E2 — Theorem 8 possibility side: the two-stage protocol across the
/// solvable grid, hostile schedules, rotating dead sets. Cells sweep in
/// parallel.
fn e2_theorem8_possible() {
    let mut t = Table::new(
        "E2 — Theorem 8 possibility: two-stage with L = n−f (f initial crashes)",
        &[
            "n",
            "f",
            "k",
            "paper: solvable",
            "runs",
            "all hold",
            "max distinct",
            "bound ⌊n/L⌋",
        ],
    );
    let grid: Vec<(usize, usize)> = vec![(4, 1), (5, 2), (6, 3), (7, 3), (8, 5), (9, 4), (10, 7)];
    let demos = sweep(&grid, |_, &(n, f)| {
        let l = kset_threshold(n, f);
        let k = decision_bound(n, l).max(1);
        theorem8_solvable(n, f, k).then(|| possibility_demo(n, f, k, 6))
    });
    for ((n, f), demo) in grid.iter().zip(demos) {
        let Some(demo) = demo else {
            continue;
        };
        let l = kset_threshold(*n, *f);
        t.row(&[
            n.to_string(),
            f.to_string(),
            demo.k.to_string(),
            glyph(true).into(),
            demo.runs.to_string(),
            glyph(demo.all_hold).into(),
            demo.max_distinct.to_string(),
            decision_bound(*n, l).to_string(),
        ]);
    }
    println!("{t}");
}

/// E3 — Theorem 8 impossibility side: the k+1-partition construction at
/// the exact border kn = (k+1)f. The grid cells are independent, so they
/// run through the parallel sweep; results come back in grid order, so the
/// table is identical to a sequential pass.
fn e3_theorem8_border() {
    let mut t = Table::new(
        "E3 — Theorem 8 border (kn = (k+1)f): pasted failure-free run",
        &[
            "n",
            "k",
            "f",
            "pasting verified",
            "faulty in run",
            "distinct decisions",
            "violates k-agreement",
        ],
    );
    let grid: Vec<(usize, usize)> = kset_impossibility::THEOREM8_BORDER_GRID.to_vec();
    let demos = sweep(&grid, |_, &(n, k)| border_demo(n, k, 300_000));
    for ((n, k), demo) in grid.iter().zip(demos) {
        let Some(demo) = demo else {
            continue;
        };
        t.row(&[
            n.to_string(),
            k.to_string(),
            demo.f.to_string(),
            glyph(demo.pasted.verified).into(),
            demo.pasted.report.failure_pattern.num_faulty().to_string(),
            demo.pasted.distinct_decisions().to_string(),
            glyph(demo.violates_k_agreement()).into(),
        ]);
    }
    println!("{t}");
}

/// E4 — Theorem 10: (Σk, Ωk) refuted for 2 ≤ k ≤ n−2, with Lemma 9
/// validation and the Bouzid–Travers comparison column.
fn e4_theorem10() {
    let mut t = Table::new(
        "E4 — Theorem 10: (Σk, Ωk) vs k-set agreement, candidate LeaderAdopt",
        &[
            "n",
            "k",
            "paper: impossible",
            "BT[5] covers",
            "outcome",
            "history legal (Lemma 9)",
            "refuted",
        ],
    );
    for n in 5..=8usize {
        for k in 2..=n - 2 {
            let Some(demo) = theorem10_demo(n, k, 200_000) else {
                continue;
            };
            t.row(&[
                n.to_string(),
                k.to_string(),
                glyph(theorem10_impossible(n, k)).into(),
                glyph(bouzid_travers_impossible(n, k)).into(),
                outcome_tag(&demo.analysis.outcome, demo.refuted()),
                glyph(demo.history_legal_for_sigma_omega_k()).into(),
                glyph(demo.refuted()).into(),
            ]);
        }
    }
    println!("{t}");
}

/// E5 — Corollary 13 endpoints: consensus from (Σ, Ω) and (n−1)-set
/// agreement from loneliness, across crash counts.
fn e5_corollary13() {
    use kset_core::algorithms::lonely_set::LonelySetAgreement;
    use kset_core::algorithms::sigma_omega_consensus::SigmaOmegaConsensus;
    use kset_core::runner::run_round_robin_with_oracle;
    use kset_core::task::KSetTask;
    use kset_fd::{LonelinessOracle, RealisticSigmaOmega};
    use kset_sim::{CrashPlan, Time};

    let mut t = Table::new(
        "E5 — Corollary 13 endpoints: k = 1 via (Σ,Ω), k = n−1 via L",
        &[
            "n",
            "k",
            "f (initial)",
            "paper: solvable",
            "holds",
            "distinct",
        ],
    );
    let n = 6;
    for f in 0..n {
        let values = distinct_proposals(n);
        let survivor = f; // lowest non-dead id
        let dead: Vec<ProcessId> = (0..f).map(ProcessId::new).collect();
        // k = 1.
        let oracle = RealisticSigmaOmega::consensus(n, Time::new(20), ProcessId::new(survivor));
        let report = run_round_robin_with_oracle::<SigmaOmegaConsensus, _>(
            values.clone(),
            oracle,
            CrashPlan::initially_dead(dead.clone()),
            400_000,
        );
        let verdict = KSetTask::consensus(n).judge(&values, &report);
        t.row(&[
            n.to_string(),
            "1".into(),
            f.to_string(),
            glyph(corollary13_solvable(n, 1)).into(),
            glyph(verdict.holds()).into(),
            verdict.distinct.to_string(),
        ]);
        // k = n−1.
        let report = run_round_robin_with_oracle::<LonelySetAgreement, _>(
            values.clone(),
            LonelinessOracle::new(n),
            CrashPlan::initially_dead(dead),
            100_000,
        );
        let verdict = KSetTask::set_agreement(n).judge(&values, &report);
        t.row(&[
            n.to_string(),
            (n - 1).to_string(),
            f.to_string(),
            glyph(corollary13_solvable(n, n - 1)).into(),
            glyph(verdict.holds()).into(),
            verdict.distinct.to_string(),
        ]);
    }
    println!("{t}");
}

// ---------------------------------------------------------------------------
// Sharded sweeps: `sweep` / `merge` subcommands (the CI shard matrix).
// ---------------------------------------------------------------------------

/// Incrementally fingerprints the bytes written to a shard file, so the
/// summary line can report a whole-file digest without rematerializing it.
/// Uses the release-stable [`kset_sim::StableHasher`]: the digest a shard
/// job prints must match the digest the (separately built) merge job
/// prints for the same bytes.
struct FileDigest(kset_sim::StableHasher);

impl FileDigest {
    fn new() -> Self {
        FileDigest(kset_sim::StableHasher::new())
    }

    fn update(&mut self, chunk: &str) {
        std::hash::Hasher::write(&mut self.0, chunk.as_bytes());
    }

    fn finish(&self) -> u64 {
        std::hash::Hasher::finish(&self.0)
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [{tables}]   (no flag: every table)\n\
         \u{20}      experiments sweep --grid <{names}> --out FILE \
         [--grid-seed N] [--shard I/J | --seq]\n\
         \u{20}      experiments sweep --resume FILE [--out FILE]\n\
         \u{20}      experiments merge --out FILE [--check-against-sequential] SHARD_FILE...",
        tables = TABLES.map(|(flag, _)| flag).join("] ["),
        names = kset_bench::sweeps::GRID_NAMES.join("|")
    );
    std::process::exit(2);
}

/// `sweep`: run one shard of a catalog grid (the whole grid unless
/// `--shard I/J` names one) through
/// [`SweepGrid::run_range`](kset_bench::sweeps::SweepGrid::run_range),
/// writing each record to a self-describing shard file as it arrives.
/// `--seq` runs the whole grid cell by cell instead: the scalar reference
/// the grid's batch kernel is checked against. The files the two write
/// are byte-identical, which tier-1 and CI assert.
///
/// `--resume FILE` reads a partial `kset-sweep v2` shard file — every
/// parameter (grid, seed, shard) comes from its header — recomputes
/// **only the cells the file still owes**, and rewrites the completed
/// file (in place unless `--out` redirects), byte-identical to an
/// uninterrupted sweep.
fn sweep_cmd(args: &[String]) {
    use kset_sim::sweep::{CellRecord, ShardSpec};

    let mut grid_name: Option<String> = None;
    let mut grid_seed: u64 = 42;
    let mut shard = ShardSpec::FULL;
    let mut out: Option<String> = None;
    let mut seq = false;
    let mut resume: Option<String> = None;
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        first_use(&mut seen, arg);
        match arg.as_str() {
            "--grid" => grid_name = Some(value("--grid").clone()),
            "--grid-seed" => {
                grid_seed = value("--grid-seed")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --grid-seed: {e}")));
            }
            "--shard" => {
                shard = value("--shard")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --shard: {e}")));
            }
            "--out" => out = Some(value("--out").clone()),
            "--seq" => seq = true,
            "--resume" => resume = Some(value("--resume").clone()),
            other => usage(&format!("unknown sweep argument {other:?}")),
        }
    }
    if let Some(resume) = resume {
        let explicit = ["--grid", "--grid-seed", "--shard", "--seq"];
        if let Some(flag) = seen.iter().find(|flag| explicit.contains(flag)) {
            usage(&format!(
                "--resume reads every parameter from the file's header; drop {flag}"
            ));
        }
        return resume_cmd(&resume, out.as_deref().unwrap_or(&resume));
    }
    let Some(grid_name) = grid_name else {
        usage("sweep needs --grid");
    };
    let Some(out) = out else {
        usage("sweep needs --out");
    };
    if seq && !shard.is_full() {
        usage("--seq is the whole-grid reference pass; it cannot take --shard");
    }
    let grid = kset_bench::sweeps::grid(&grid_name, grid_seed).unwrap_or_else(|e| fail(e));

    let mut writer = ShardWriter::create(&out);
    writer.emit(&grid.header(shard).render());
    let mut records = 0usize;
    let mut write = |record: CellRecord| {
        records += 1;
        writer.emit(&format!("{}\n", record.render_line()));
    };
    let mode = if seq {
        grid.sweep_sequential().into_iter().for_each(&mut write);
        "sequential"
    } else {
        grid.run_range(shard.range(grid.cells.len()), &mut write);
        "default"
    };
    writer.emit(&kset_sim::sweep::record::render_footer(records));
    let file_digest = writer.finish();
    println!(
        "sweep grid={grid_name} seed={grid_seed} shard={shard} mode={mode} \
         cells={records} out={out} file-digest={file_digest:#018x}",
    );
}

/// Records one use of `flag`, rejecting a second: the last value of a
/// repeated flag would otherwise silently win.
fn first_use<'a>(seen: &mut Vec<&'a str>, flag: &'a str) {
    if seen.contains(&flag) {
        usage(&format!("{flag} given more than once"));
    }
    seen.push(flag);
}

/// A shard file being written: bytes stream to disk and into the running
/// whole-file digest the summary line reports.
struct ShardWriter {
    path: String,
    file: std::io::BufWriter<std::fs::File>,
    digest: FileDigest,
}

impl ShardWriter {
    fn create(path: &str) -> Self {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format_args!("cannot create {path}: {e}")));
        ShardWriter {
            path: path.to_string(),
            file: std::io::BufWriter::new(file),
            digest: FileDigest::new(),
        }
    }

    fn emit(&mut self, chunk: &str) {
        use std::io::Write as _;
        self.digest.update(chunk);
        self.file
            .write_all(chunk.as_bytes())
            .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", self.path)));
    }

    fn finish(mut self) -> u64 {
        use std::io::Write as _;
        self.file
            .flush()
            .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", self.path)));
        self.digest.finish()
    }
}

/// The `sweep --resume` path: parse the partial file, recompute only the
/// owed cells, rewrite the completed shard file.
fn resume_cmd(resume_path: &str, out: &str) {
    use kset_sim::sweep::PartialShardFile;

    let text = std::fs::read_to_string(resume_path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {resume_path}: {e}")));
    let partial =
        PartialShardFile::parse(&text).unwrap_or_else(|e| fail(format_args!("{resume_path}: {e}")));
    let header = &partial.header;
    let grid = kset_bench::sweeps::grid(&header.grid, header.grid_seed).unwrap_or_else(|e| fail(e));
    // The header must still describe the catalog grid it names — resuming
    // against a drifted catalog would silently mix semantics.
    let expected = grid.header(header.shard);
    if *header != expected {
        fail(format_args!(
            "{resume_path}: header does not match the current \"{}\" catalog grid \
             (axes or cell count drifted); re-sweep instead of resuming",
            header.grid
        ));
    }
    let resumed = partial.records.len();
    let owed = partial.owed();
    let recomputed = owed.len();

    // Resume must itself be kill-safe: the default output is the partial
    // file, and truncating it before the recompute finishes would destroy
    // exactly the work resuming exists to preserve. Write beside it and
    // rename into place only once the completed file is flushed (a plain
    // `sweep` writes directly on purpose — its partial file IS the crash
    // artifact; here the crash artifact already exists).
    let staging = format!("{out}.resume-tmp");
    let mut writer = ShardWriter::create(&staging);
    writer.emit(&header.render());
    for record in &partial.records {
        writer.emit(&format!("{}\n", record.render_line()));
    }
    let mut records = resumed;
    grid.run_range(owed, |record| {
        records += 1;
        writer.emit(&format!("{}\n", record.render_line()));
    });
    writer.emit(&kset_sim::sweep::record::render_footer(records));
    let file_digest = writer.finish();
    std::fs::rename(&staging, out)
        .unwrap_or_else(|e| fail(format_args!("cannot move {staging} into {out}: {e}")));
    println!(
        "sweep grid={} seed={} shard={} mode=resume resumed={resumed} \
         recomputed={recomputed} cells={records} out={out} file-digest={file_digest:#018x}",
        header.grid, header.grid_seed, header.shard,
    );
}

/// `merge`: reassemble per-shard files into the canonical full-grid file,
/// verifying exact coverage; `--check-against-sequential` additionally
/// recomputes the whole grid in-process and demands identical records.
fn merge_cmd(args: &[String]) {
    use kset_sim::sweep::{merge, ShardFile, ShardSpec};

    let mut out: Option<String> = None;
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            first_use(&mut seen, arg);
        }
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--out needs a value"))
                        .clone(),
                );
            }
            "--check-against-sequential" => check = true,
            flag if flag.starts_with("--") => usage(&format!("unknown merge argument {flag:?}")),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        usage("merge needs at least one shard file");
    }
    let shards: Vec<ShardFile> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
            ShardFile::parse(&text).unwrap_or_else(|e| fail(format_args!("{path}: {e}")))
        })
        .collect();
    let merged = merge(&shards).unwrap_or_else(|e| fail(e));
    let rendered = merged.render();
    let mut digest = FileDigest::new();
    digest.update(&rendered);
    println!(
        "merge grid={} seed={} shards={} cells={} file-digest={:#018x}",
        merged.header.grid,
        merged.header.grid_seed,
        shards.len(),
        merged.records.len(),
        digest.finish(),
    );
    if let Some(out) = &out {
        std::fs::write(out, &rendered)
            .unwrap_or_else(|e| fail(format_args!("cannot write {out}: {e}")));
    }
    if check {
        let grid = kset_bench::sweeps::grid(&merged.header.grid, merged.header.grid_seed)
            .unwrap_or_else(|e| fail(e));
        let sequential = ShardFile {
            header: grid.header(ShardSpec::FULL),
            records: grid.sweep_sequential(),
        };
        for (m, s) in merged.records.iter().zip(&sequential.records) {
            if m != s {
                fail(format_args!(
                    "cell {} diverges from the sequential recompute: \
                     merged {m:?}, sequential {s:?}",
                    m.index
                ));
            }
        }
        if rendered != sequential.render() {
            fail("merged file is not byte-identical to the sequential recompute");
        }
        println!(
            "check grid={} seed={}: merged == sequential ({} cells)",
            merged.header.grid,
            merged.header.grid_seed,
            merged.records.len(),
        );
    }
}

/// E6 — Lemmas 6/7 on random stage-one graphs: source-component counts vs
/// the ⌊n/(δ+1)⌋ bound.
fn e6_graph_lemmas() {
    let mut t = Table::new(
        "E6 — Lemmas 6/7: source components of stage-one graphs (100 seeds each)",
        &[
            "n",
            "δ",
            "lemma 6",
            "lemma 7",
            "count bound",
            "max sources seen",
            "bound ⌊n/(δ+1)⌋",
        ],
    );
    for (n, delta) in [(6, 1), (6, 2), (9, 2), (12, 2), (12, 3), (16, 3), (20, 4)] {
        let mut ok6 = true;
        let mut ok7 = true;
        let mut okb = true;
        let mut max_sources = 0;
        for seed in 0..100 {
            let g = stage_one_graph(n, delta, seed);
            ok6 &= check_lemma6(&g, delta).is_ok();
            ok7 &= check_lemma7(&g, delta).is_ok();
            okb &= check_source_count_bound(&g, delta).is_ok();
            max_sources = max_sources.max(source_components(&g).len());
        }
        t.row(&[
            n.to_string(),
            delta.to_string(),
            glyph(ok6).into(),
            glyph(ok7).into(),
            glyph(okb).into(),
            max_sources.to_string(),
            (n / (delta + 1)).to_string(),
        ]);
    }
    println!("{t}");
}

/// E7 — the discrete-event substrate: three-substrate agreement over the
/// Theorem 8 border grid, then the timed family's idle-skip — the virtual
/// horizon grows linearly with the latency bound while the executed units
/// stay constant.
fn e7_discrete_event() {
    use kset_core::scenario::{differential, RoundAdapter};
    use kset_sim::des::Latency;
    use kset_sim::scenario::{Scenario, ScheduleFamily};
    use kset_sim::Engine;

    let mut t = Table::new(
        "E7a — three substrates on the Theorem 8 border grid",
        &["n", "k", "f", "sim = lock", "des = sim", "units sim/des"],
    );
    for cell in kset_impossibility::theorem8_border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        let report = match differential::check::<FloodMin>(&scenario) {
            Ok(report) => report,
            Err(_) => continue,
        };
        t.row(&[
            cell.n.to_string(),
            cell.k.to_string(),
            cell.f.to_string(),
            glyph(report.agrees()).into(),
            glyph(report.des.decisions == report.sim.decisions).into(),
            format!("{}/{}", report.sim.units, report.des.units),
        ]);
    }
    println!("{t}");

    let mut t = Table::new(
        "E7b — timed family, fixed latency d (n=8, f=3, k=1): idle time is skipped",
        &["d", "virtual horizon", "units", "distinct", "decided"],
    );
    for d in [1u64, 4, 64, 1024] {
        let scenario = Scenario::favourable(8, 3, 1).with_schedule(ScheduleFamily::Timed {
            latency: Latency::fixed(d),
            gst: 0,
            seed: 42,
        });
        let Ok(mut engine) = scenario.to_des::<RoundAdapter<FloodMin>>() else {
            continue;
        };
        engine.drive(scenario.max_units);
        t.row(&[
            d.to_string(),
            engine.now().to_string(),
            engine.units().to_string(),
            engine.distinct_decisions().len().to_string(),
            glyph(engine.done()).into(),
        ]);
    }
    println!("{t}");
}
