//! Experiment harness entry point.
//!
//! Usage:
//!   cargo run --release -p lps-bench --bin experiments -- all [--full]
//!   cargo run --release -p lps-bench --bin experiments -- e1 e5 e9
//!   cargo run --release -p lps-bench --bin experiments -- e12
//!   cargo run --release -p lps-bench --bin experiments -- bench --json
//!   cargo run --release -p lps-bench --bin experiments -- bench --json --check baseline.json
//!   cargo run --release -p lps-bench --bin experiments -- checkpoint --dir D [--shards K]
//!   cargo run --release -p lps-bench --bin experiments -- checkpoint --merge --dir D
//!   cargo run --release -p lps-bench --bin experiments -- crashtest --dir D [--kills K] [--seed S]
//!   cargo run --release -p lps-bench --bin experiments -- serve [--dim N] [--seed S]
//!   cargo run --release -p lps-bench --bin experiments -- feed --addr A [--updates N]
//!   cargo run --release -p lps-bench --bin experiments -- servetest [--updates N]
//!
//! Without `--full` the harness runs in "quick" mode (fewer trials), which is
//! what the README's Experiments section runs; `--full` multiplies the trial
//! counts. `e12` times the per-operation cost of every sketch, sampler,
//! duplicate finder and heavy-hitter structure (E12); like `e15` it runs
//! only by name, never under `all`. The
//! `bench` experiment runs the update-path throughput suite (E13), the
//! sharded-ingestion engine scaling suite (E14), the multi-tenant
//! registry suite (E15), and the field-kernel micro-bench suite (E17,
//! scalar vs lane-parallel); with `--json` it also writes the results to
//! `BENCH_samplers.json` so every PR leaves a machine-readable perf
//! datapoint. `--check <path>` re-reads a committed
//! baseline document, compares the gated headline speedups, and exits
//! non-zero on a regression beyond the tolerance — this is the CI perf gate.
//! An unknown experiment id or flag exits with code 2 and names it, so a
//! mistyped id fails instead of running nothing. Each subcommand checks its
//! own flags the same way (`lps_bench::cli`): an unknown flag, a flag
//! without its value, a value that does not parse or a missing required
//! flag exits with code 2, naming the argument, before anything runs.
//!
//! The `checkpoint` subcommand exercises the cross-process persistence
//! pipeline: without `--merge` it ingests a deterministic workload through
//! the sharded engine and writes one encoded shard file per worker into
//! `--dir`; with `--merge` (run it in a fresh process) it reads the shard
//! files back, merges them with seed-compatibility validation, and
//! digest-compares against sequential ingestion — exiting non-zero on any
//! mismatch.
//!
//! The `crashtest` subcommand is the crash-recovery harness: it re-spawns
//! this binary as a child (`--child`) that routes Zipf traffic into a
//! `FileSpill` and aborts mid-run, then reopens the torn log and verifies
//! every committed record survived (see `lps_bench::crashtest`).
//!
//! The `serve`/`feed`/`servetest` subcommands drive the streaming service
//! over real TCP: `servetest` spawns a `serve` child of this binary, reads
//! the bound address off its stdout, streams update batches plus a shard
//! checkpoint set at it (with live queries mid-ingestion and a deliberate
//! plan-mismatch rejection), and digest-compares every catalog structure
//! against sequential ingestion — exiting non-zero on any mismatch (see
//! `lps_bench::service_loopback`).

use lps_bench::*;

/// The ids the experiment runner accepts: `all`, the perf suites (`bench`),
/// the paper's tables E1–E11 (E4 prints with E1), the per-operation cost
/// suite (E12) and the registry suite (E15).
const EXPERIMENT_IDS: &[&str] = &[
    "all", "bench", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    "e15",
];

/// Refuse the command line before anything runs: print `problem`, which
/// names the bad argument, and exit with code 2.
fn refuse(problem: &str) -> ! {
    eprintln!("experiments: {problem}");
    std::process::exit(2);
}

/// Refuse a top-level argument, listing what the top level accepts.
fn usage_error(problem: &str) -> ! {
    let subcommands: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
    refuse(&format!(
        "{problem} (ids: {}; flags: --full, --json, --check <path>; subcommands: {})",
        EXPERIMENT_IDS.join(", "),
        subcommands.join(", ")
    ))
}

/// A subcommand's entry point: the process exit code, or the refused
/// argument before anything runs.
type Subcommand = fn(&[String]) -> Result<i32, UsageError>;

/// Every subcommand, by the name that selects it.
const SUBCOMMANDS: &[(&str, Subcommand)] = &[
    ("checkpoint", run_checkpoint),
    ("crashtest", run_crashtest),
    ("serve", serve_main),
    ("feed", feed_main),
    ("servetest", servetest_main),
];

/// Run the `checkpoint` subcommand.
fn run_checkpoint(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags { valued: &["--dir", "--shards"], switches: &["--merge"], positional: false };
    let args = Args::parse(args, flags)?;
    let dir = std::path::PathBuf::from(args.required("--dir", "directory")?);
    // the checkpoint envelope stamps the shard count as a u16
    let shards: usize = args.parsed_in("--shards", 4, 1..=usize::from(u16::MAX))?;
    Ok(if args.has("--merge") {
        match checkpoint_merge(&dir) {
            Ok(outcomes) => {
                print!("{}", render_outcomes("merge", &outcomes));
                if outcomes.iter().all(|o| o.matched) {
                    println!("checkpoint merge: all digests match sequential ingestion");
                    0
                } else {
                    println!("checkpoint merge: DIGEST MISMATCH");
                    1
                }
            }
            Err(e) => {
                eprintln!("checkpoint merge failed: {e}");
                1
            }
        }
    } else {
        match checkpoint_write(&dir, shards) {
            Ok(outcomes) => {
                print!("{}", render_outcomes("write", &outcomes));
                println!(
                    "checkpoint write: {} structures x {shards} shards -> {}",
                    outcomes.len(),
                    dir.display()
                );
                0
            }
            Err(e) => {
                eprintln!("checkpoint write failed: {e}");
                1
            }
        }
    })
}

/// Run the `crashtest` subcommand.
fn run_crashtest(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags {
        valued: &["--dir", "--kills", "--seed", "--kill-after"],
        switches: &["--child"],
        positional: false,
    };
    let args = Args::parse(args, flags)?;
    let dir = std::path::PathBuf::from(args.required("--dir", "directory")?);
    let seed: u64 = args.parsed("--seed", 1)?;
    Ok(if args.has("--child") {
        args.required("--kill-after", "commits")?;
        crashtest_child(&dir, seed, args.parsed("--kill-after", 0)?)
    } else {
        crashtest_parent(&dir, args.parsed("--kills", 8)?, seed)
    })
}

/// Read the `--check` baseline document, refusing a path that cannot be
/// read or a document that holds none of the gated ratios: either would let
/// the gate pass without comparing anything. A baseline that holds some of
/// them gates those and reports the rest as skipped.
fn read_baseline(path: &str) -> String {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| refuse(&format!("--check: cannot read baseline `{path}`: {e}")));
    let headline = parse_headline(&doc);
    if !GATED_HEADLINE_KEYS.iter().any(|&key| headline.iter().any(|(k, _)| k == key)) {
        refuse(&format!(
            "--check: baseline `{path}` holds none of the gated ratios ({})",
            GATED_HEADLINE_KEYS.join(", ")
        ));
    }
    doc
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(&(name, run)) =
        SUBCOMMANDS.iter().find(|(name, _)| args.first().map(String::as_str) == Some(name))
    {
        match run(&args[1..]) {
            Ok(code) => std::process::exit(code),
            Err(e) => refuse(&format!("{name}: {e}")),
        }
    }
    let (mut full, mut json) = (false, false);
    let mut check_baseline: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--check" => match rest.next() {
                Some(path) => check_baseline = Some(path.clone()),
                None => usage_error("--check needs a baseline path"),
            },
            id if EXPERIMENT_IDS.contains(&id) => selected.push(arg.clone()),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            id => usage_error(&format!("unknown experiment id `{id}`")),
        }
    }
    // Read the baseline before anything runs, and so before --json can
    // overwrite it: `--json --check BENCH_samplers.json` must compare
    // against the committed bytes, not against the freshly written results.
    let baseline_doc = check_baseline.as_deref().map(read_baseline);
    let quick = !full;
    let run_everything = selected.is_empty() || selected.iter().any(|s| s == "all");

    let wants = |id: &str| run_everything || selected.iter().any(|s| s == id);

    // The throughput suites (E13 + E14) only run when asked for by name or
    // via --json / --check — they are perf measurements, not one of the
    // paper's statistical experiments, so `all` does not imply them.
    if selected.iter().any(|s| s == "bench") || json || check_baseline.is_some() {
        let meta = BenchMeta::collect();
        let mut records = throughput_suite(quick);
        println!("{}", throughput_table(&records).render());
        let scaling = engine_scaling_suite(quick);
        println!("{}", engine_scaling_table(&scaling, meta.host_cpus).render());
        records.extend(scaling);
        let kernels = kernel_suite(quick);
        println!("{}", kernel_table(&kernels).render());
        records.extend(kernels);
        let registry = registry_suite(quick);
        println!("{}", registry_table(&registry).render());
        if json {
            let path = "BENCH_samplers.json";
            std::fs::write(path, to_json(&records, &registry, quick, &meta))
                .expect("write BENCH_samplers.json");
            println!("wrote {path}");
        }
        if let (Some(baseline_path), Some(baseline_doc)) = (&check_baseline, &baseline_doc) {
            let fresh_mode = if quick { "quick" } else { "full" };
            if let Some(baseline_mode) = parse_mode(baseline_doc) {
                if baseline_mode != fresh_mode {
                    println!(
                        "perf gate note: comparing a {fresh_mode}-mode run against a \
                         {baseline_mode}-mode baseline — ratios are dimensionless but \
                         workload sizes differ, so expect extra noise"
                    );
                }
            }
            let baseline_class =
                parse_runner_class(baseline_doc).unwrap_or_else(|| "unspecified".to_string());
            if let Some(advice) = seed_baseline_advice(&baseline_class) {
                println!("{advice}");
            } else if baseline_class != meta.runner_class {
                println!(
                    "perf gate note: baseline runner class '{baseline_class}' differs from \
                     this run's '{}' — per-class baselines live under ci/perf-baselines/",
                    meta.runner_class
                );
            }
            let baseline = parse_headline(baseline_doc);
            let fresh = headline_ratios(&records);
            println!("perf gate vs {baseline_path} (tolerance {:.0}%):", GATE_TOLERANCE * 100.0);
            match check_headline_regression(&fresh, &baseline, GATE_TOLERANCE) {
                Ok(report) => {
                    for line in report {
                        println!("  {line}");
                    }
                    println!("perf gate: PASS");
                }
                Err(failures) => {
                    for line in failures {
                        println!("  {line}");
                    }
                    println!("perf gate: FAIL");
                    std::process::exit(1);
                }
            }
        }
        if !run_everything && selected.iter().all(|s| s == "bench") {
            return;
        }
    }

    if wants("e1") || wants("e4") {
        println!("{}", e1_sampler_accuracy(quick).render());
    }
    if wants("e2") {
        println!("{}", e2_sampler_space(quick).render());
    }
    if wants("e3") {
        for t in e3_l0_sampler(quick) {
            println!("{}", t.render());
        }
    }
    if wants("e5") {
        println!("{}", e5_duplicates(quick).render());
    }
    if wants("e6") {
        println!("{}", e6_duplicates_short(quick).render());
    }
    if wants("e7") {
        println!("{}", e7_duplicates_long(quick).render());
    }
    if wants("e8") {
        println!("{}", e8_heavy_hitters(quick).render());
    }
    if wants("e9") {
        println!("{}", e9_ur_protocol(quick).render());
    }
    if wants("e10") {
        for t in e10_reductions(quick) {
            println!("{}", t.render());
        }
    }
    if wants("e11") {
        println!("{}", e11_hh_reduction(quick).render());
    }
    // E12 and E15 are perf measurements, not statistical experiments: they
    // run only when asked for by name (E15 also inside the bench block above).
    if selected.iter().any(|s| s == "e12") {
        println!("{}", ops_table(&ops_suite(quick)).render());
    }
    if selected.iter().any(|s| s == "e15") {
        println!("{}", registry_table(&registry_suite(quick)).render());
    }
}
