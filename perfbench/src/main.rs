//! End-to-end benchmark of the `LPSW` sketch service.
//!
//! ```text
//! perfbench --workload <ingest_churn|query_mix|tenant_fleet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the timed phases against the socket service with
//! tracing off and prints the end-to-end metrics; `--trace 1` runs the
//! traced per-layer pass and prints the per-layer metrics. Both end with
//! the correctness gate and print, as the last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. See README.md
//! for the metrics, the workloads and the layer map.

mod stats;
mod timed;
mod traced;
mod workload;

use stats::Report;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Flip one bit of one reference digest: the run must then fail.
    doctor: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut doctor) = (DEFAULT_SEED, 10.0_f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--doctor-reference" {
            doctor = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, doctor })
}

/// Provenance stamped with every result, so results from different hosts,
/// commits or feature sets are never compared silently.
fn provenance(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"nproc\": {}, \"rustc\": \"{}\", \"simd\": {}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        env("PERFBENCH_COMMIT"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("PERFBENCH_RUSTC"),
        cfg!(feature = "simd"),
    )
}

/// Run the benchmark; the return value is the process exit code.
fn run(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    println!("provenance {}", provenance(&args));
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, args.doctor)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok((report, attempted, failed, gate)) => {
            report.print_table();
            let correct = gate.is_ok();
            match &gate {
                Ok(n) => println!("gate: {n} digests match the sequential reference"),
                Err(e) => println!("gate: MISMATCH: {e}"),
            }
            println!("{}", report.json(correct, attempted, failed));
            if correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// What a run hands back: its metrics, operations attempted and failed,
/// and the correctness gate's verdict.
type Outcome = (Report, u64, u64, Result<usize, String>);

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let t = timed::run(w, args.seed, args.seconds, args.doctor).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let setup_note = format!(
        "median of {}, range {:.1}-{:.1} ms",
        t.setup.len(),
        t.setup.quantile_us(0.0) / 1e3,
        t.setup.max_us() / 1e3
    );
    r.add_noted("setup_s", t.setup.quantile_us(0.5) / 1e6, "s", setup_note);
    r.add("ingest_updates_per_s", t.ingest_updates_per_s, "1/s");
    let (wl, rl) = (&t.writes.latency, &t.reads.latency);
    r.add_noted("write_p50_us", wl.quantile_us(0.5), "us", wl.note(0.5));
    r.add_noted("read_p50_us", rl.quantile_us(0.5), "us", rl.note(0.5));
    r.add("cpu_us_per_request", t.cpu_us_per_request, "us");
    r.add("peak_rss_mib", t.peak_rss_mib, "MiB");
    // The tails are printed but not in the result: on a shared 2-vCPU host
    // their run-to-run spread exceeds any regression bound (README.md).
    for (name, s) in [("write_p99_us", wl), ("read_p99_us", rl)] {
        println!("{name} {:.3} us ({}; not gated)", s.quantile_us(0.99), s.note(0.99));
    }
    println!(
        "error_rate {} ({} failed of {} attempted; {} typed saturated answers counted as reads)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted,
        t.reads.saturated
    );
    println!(
        "open loop: {} writes at {}/s, {} reads at {}/s; driver late p99 {:.1} us",
        t.writes.sent,
        w.write_rps,
        t.reads.sent,
        w.read_rps,
        t.writes.late.quantile_us(0.99).max(t.reads.late.quantile_us(0.99))
    );
    Ok((r, t.attempted, t.failed, t.gate))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&argv));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bad_arguments_exit_non_zero() {
        assert_eq!(run(&argv("--workload nope --seed 1")), 2);
        assert_eq!(run(&argv("--seed 1")), 2);
        assert_eq!(run(&argv("--workload query_mix --seconds 0")), 2);
    }

    #[test]
    fn a_doctored_reference_digest_fails_the_command() {
        let base = "--workload query_mix --seed 5 --seconds 0.5 --trace 0";
        assert_eq!(run(&argv(base)), 0);
        assert_eq!(run(&argv(&format!("{base} --doctor-reference"))), 1);
    }
}
