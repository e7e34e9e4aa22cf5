//! The `experiments -- workload` subcommand: run a declarative workload
//! spec (see `lps-workload`) against **both** load targets — the
//! in-process engine core and the socket service over loopback TCP —
//! and stamp the outcomes into the `BENCH_samplers.json` artifact.
//!
//! Usage:
//!   experiments -- workload <spec.toml> [<spec.toml>...] [--json] [--check]
//!
//! Each spec ramps until saturation (a step missing its offered rate) or
//! its `max_rps` cap. `--json` merges a `"workloads"` array into the
//! existing `BENCH_samplers.json` (creating a minimal document when none
//! exists) so the perf trajectory and the workload trajectory live in
//! one artifact. `--check` re-reads the artifact afterwards and fails if
//! the array is missing or malformed — but deliberately tolerates
//! `"saturated": false`, since a fast host may sustain every step up to
//! `max_rps` without ever saturating.

use std::path::Path;

use lps_service::{RunningServer, ServiceConfig};
use lps_workload::{run_workload, EngineTarget, SocketTarget, WorkloadOutcome, WorkloadSpec};

use crate::cli::{Args, Flags, UsageError};
use crate::report::{f1, int, Table};

/// The artifact both the bench suite and the workload harness stamp.
const ARTIFACT: &str = "BENCH_samplers.json";

/// Auth token the loopback service run uses, so every workload run also
/// exercises the authenticated handshake path end-to-end.
const WORKLOAD_TOKEN: &str = "lps-workload-harness";

fn service_config(spec: &WorkloadSpec) -> ServiceConfig {
    ServiceConfig::new(spec.dimension, spec.seed)
}

/// Run one spec against the in-process engine target.
fn run_engine(spec: &WorkloadSpec) -> Result<WorkloadOutcome, String> {
    let mut target = EngineTarget::new(&service_config(spec));
    run_workload(spec, &mut target).map_err(|e| format!("engine target: {e}"))
}

/// Run one spec against the socket service over loopback TCP (with the
/// harness auth token on both sides).
fn run_service(spec: &WorkloadSpec) -> Result<WorkloadOutcome, String> {
    let server =
        RunningServer::bind_tcp("127.0.0.1:0", service_config(spec).auth_token(WORKLOAD_TOKEN))
            .map_err(|e| format!("bind loopback server: {e}"))?;
    let addr = server.local_addr().ok_or("loopback server has no TCP address")?;
    let mut target = SocketTarget::connect(addr, Some(WORKLOAD_TOKEN))
        .map_err(|e| format!("connect to loopback server: {e}"))?;
    let outcome = run_workload(spec, &mut target).map_err(|e| format!("service target: {e}"));
    // Shut the server down whether or not the run succeeded, so a failed
    // run does not leak the acceptor and connection threads.
    let _ = target.shutdown();
    server.join();
    outcome
}

/// Render one outcome as a human-readable per-step table.
fn outcome_table(outcome: &WorkloadOutcome) -> Table {
    let title = format!(
        "workload {} vs {} — sustainable {} rps{}",
        outcome.spec_name,
        outcome.target,
        f1(outcome.sustainable_max_rps),
        if outcome.saturated { " (saturated)" } else { " (max_rps reached, not saturated)" },
    );
    let mut t = Table::new(
        &title,
        &[
            "target_rps",
            "offered",
            "achieved_rps",
            "met",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "read_errs",
        ],
    );
    for s in &outcome.steps {
        t.row(&[
            int(s.target_rps as u64),
            int(s.offered),
            f1(s.achieved_rps),
            if s.met { "yes".into() } else { "NO".into() },
            f1(s.p50_us),
            f1(s.p99_us),
            f1(s.p999_us),
            f1(s.max_us),
            int(s.read_errors),
        ]);
    }
    t
}

/// Serialize one outcome as a `"workloads"` array element.
fn outcome_json(outcome: &WorkloadOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "    {{\"spec\": \"{}\", \"target\": \"{}\", \"saturated\": {}, \
         \"sustainable_max_rps\": {:.1}, \"total_requests\": {}, \"total_updates\": {}, \
         \"total_read_errors\": {}, \"steps\": [\n",
        outcome.spec_name,
        outcome.target,
        outcome.saturated,
        outcome.sustainable_max_rps,
        outcome.total_requests,
        outcome.total_updates,
        outcome.total_read_errors,
    ));
    for (i, s) in outcome.steps.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"target_rps\": {}, \"offered\": {}, \"achieved_rps\": {:.1}, \
             \"met\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
             \"max_us\": {:.1}, \"read_errors\": {}}}{}\n",
            s.target_rps,
            s.offered,
            s.achieved_rps,
            s.met,
            s.p50_us,
            s.p99_us,
            s.p999_us,
            s.max_us,
            s.read_errors,
            if i + 1 == outcome.steps.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]}");
    out
}

/// Render the full `"workloads"` key (without surrounding braces/commas).
fn workloads_json(outcomes: &[WorkloadOutcome]) -> String {
    let mut out = String::from("\"workloads\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&outcome_json(o));
        out.push_str(if i + 1 == outcomes.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
    out
}

/// Find the byte span of `"workloads": [...]` in a document, matching the
/// closing bracket by depth so nested step arrays don't end the scan
/// early. Returns `None` when the key is absent.
fn find_workloads_span(doc: &str) -> Option<(usize, usize)> {
    let key_start = doc.find("\"workloads\"")?;
    let open = key_start + doc[key_start..].find('[')?;
    let mut depth = 0usize;
    let mut in_string = false;
    for (i, c) in doc[open..].char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return Some((key_start, open + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Merge the `"workloads"` array into an artifact document: replace an
/// existing array in place, or insert the key before the document's final
/// closing brace. A missing/empty document gets a minimal wrapper.
fn merge_into_artifact(existing: Option<&str>, outcomes: &[WorkloadOutcome]) -> String {
    let rendered = workloads_json(outcomes);
    let Some(doc) = existing else {
        return format!("{{\n  {rendered}\n}}\n");
    };
    if let Some((start, end)) = find_workloads_span(doc) {
        let mut merged = String::with_capacity(doc.len() + rendered.len());
        merged.push_str(&doc[..start]);
        merged.push_str(&rendered);
        merged.push_str(&doc[end..]);
        return merged;
    }
    // Insert before the final top-level `}`.
    match doc.rfind('}') {
        Some(close) => {
            let head = doc[..close].trim_end();
            let needs_comma = !head.trim_end().ends_with('{');
            format!("{head}{}\n  {rendered}\n}}\n", if needs_comma { "," } else { "" })
        }
        None => format!("{{\n  {rendered}\n}}\n"),
    }
}

/// Validate the artifact's `"workloads"` array: every expected spec must
/// appear for both targets, and every entry must carry a numeric
/// `sustainable_max_rps` plus per-step percentiles. Returns the failure
/// messages (empty = pass).
pub fn check_artifact(doc: &str, expected_specs: &[String]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some((start, end)) = find_workloads_span(doc) else {
        return vec!["artifact has no \"workloads\" array".to_string()];
    };
    let body = &doc[start..end];
    for spec in expected_specs {
        for target in ["engine", "service"] {
            let needle = format!("{{\"spec\": \"{spec}\", \"target\": \"{target}\"");
            let Some(entry_at) = body.find(&needle) else {
                failures.push(format!("no workloads entry for spec '{spec}' target '{target}'"));
                continue;
            };
            let entry = &body[entry_at..];
            for field in ["\"sustainable_max_rps\": ", "\"saturated\": "] {
                if !entry.contains(field) {
                    failures.push(format!("entry '{spec}'/'{target}' lacks {field}"));
                }
            }
            for field in ["\"p50_us\": ", "\"p99_us\": ", "\"p999_us\": ", "\"target_rps\": "] {
                if !entry.contains(field) {
                    failures.push(format!("entry '{spec}'/'{target}' has no step with {field}"));
                }
            }
        }
    }
    failures
}

/// Run the `workload` subcommand; returns the process exit code, or the
/// refused argument before any spec is read.
pub fn workload_main(args: &[String]) -> Result<i32, UsageError> {
    let flags = Flags { valued: &[], switches: &["--json", "--check"], positional: true };
    let args = Args::parse(args, flags)?;
    if args.positional().is_empty() {
        return Err(UsageError("needs at least one <spec.toml> path".to_string()));
    }
    Ok(run_specs(args.positional(), args.has("--json"), args.has("--check")))
}

/// Run every spec at `spec_paths` on both targets, then stamp and check the
/// artifact as asked; returns the process exit code.
fn run_specs(spec_paths: &[String], json: bool, check: bool) -> i32 {
    let mut specs = Vec::new();
    for path in spec_paths {
        match WorkloadSpec::load(Path::new(path.as_str())) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("workload spec {path}: {e}");
                return 1;
            }
        }
    }

    let mut outcomes = Vec::new();
    for spec in &specs {
        println!(
            "workload {}: generator {}, dim {}, read_ratio {:.2}, ramp {}..{} rps (+{}/step, {} ms steps)",
            spec.name,
            spec.generator.kind(),
            spec.dimension,
            spec.read_ratio,
            spec.ramp.initial_rps,
            spec.ramp.max_rps,
            spec.ramp.increment_rps,
            spec.ramp.step_duration_ms,
        );
        for run in [run_engine(spec), run_service(spec)] {
            match run {
                Ok(outcome) => {
                    println!("{}", outcome_table(&outcome).render());
                    outcomes.push(outcome);
                }
                Err(e) => {
                    eprintln!("workload {} failed: {e}", spec.name);
                    return 1;
                }
            }
        }
    }

    if json {
        let existing = std::fs::read_to_string(ARTIFACT).ok();
        let merged = merge_into_artifact(existing.as_deref(), &outcomes);
        if let Err(e) = std::fs::write(ARTIFACT, merged) {
            eprintln!("write {ARTIFACT}: {e}");
            return 1;
        }
        println!("stamped {} workload outcome(s) into {ARTIFACT}", outcomes.len());
    }

    if check {
        let doc = match std::fs::read_to_string(ARTIFACT) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("workload --check: cannot read {ARTIFACT}: {e}");
                return 1;
            }
        };
        let expected: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let failures = check_artifact(&doc, &expected);
        if failures.is_empty() {
            println!("workload check: PASS ({} spec(s) x 2 targets present)", expected.len());
        } else {
            for f in &failures {
                eprintln!("workload check: {f}");
            }
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_workload::StepReport;

    fn fake_outcome(spec: &str, target: &'static str) -> WorkloadOutcome {
        WorkloadOutcome {
            spec_name: spec.to_string(),
            target,
            saturated: target == "service",
            sustainable_max_rps: 1234.5,
            total_requests: 60,
            total_updates: 320,
            total_read_errors: 1,
            steps: vec![StepReport {
                target_rps: 100,
                offered: 30,
                achieved_rps: 99.7,
                met: true,
                p50_us: 10.0,
                p99_us: 55.5,
                p999_us: 80.1,
                max_us: 93.0,
                read_errors: 1,
            }],
        }
    }

    #[test]
    fn stamping_into_a_fresh_artifact_creates_a_wrapper_document() {
        let outcomes = [fake_outcome("a", "engine"), fake_outcome("a", "service")];
        let doc = merge_into_artifact(None, &outcomes);
        assert!(doc.starts_with("{\n"));
        assert!(doc.trim_end().ends_with('}'));
        assert!(check_artifact(&doc, &["a".to_string()]).is_empty(), "{doc}");
    }

    #[test]
    fn stamping_into_a_bench_document_preserves_the_other_keys() {
        let bench = "{\n  \"benchmark\": \"update_throughput\",\n  \"records\": [\n    \
                     {\"structure\": \"ams\"}\n  ]\n}\n";
        let outcomes = [fake_outcome("a", "engine"), fake_outcome("a", "service")];
        let doc = merge_into_artifact(Some(bench), &outcomes);
        assert!(doc.contains("\"benchmark\": \"update_throughput\""));
        assert!(doc.contains("\"structure\": \"ams\""));
        assert!(check_artifact(&doc, &["a".to_string()]).is_empty(), "{doc}");
    }

    #[test]
    fn restamping_replaces_the_existing_workloads_array() {
        let outcomes_a = [fake_outcome("a", "engine"), fake_outcome("a", "service")];
        let doc = merge_into_artifact(None, &outcomes_a);
        let outcomes_b = [fake_outcome("b", "engine"), fake_outcome("b", "service")];
        let doc2 = merge_into_artifact(Some(&doc), &outcomes_b);
        assert_eq!(doc2.matches("\"workloads\"").count(), 1);
        assert!(check_artifact(&doc2, &["b".to_string()]).is_empty());
        assert_eq!(
            check_artifact(&doc2, &["a".to_string()]).len(),
            2,
            "stale spec entries must be gone for both targets"
        );
    }

    #[test]
    fn check_rejects_missing_or_partial_records() {
        assert!(!check_artifact("{}\n", &["a".to_string()]).is_empty());
        // engine-only stamping leaves the service entry missing
        let doc = merge_into_artifact(None, &[fake_outcome("a", "engine")]);
        let failures = check_artifact(&doc, &["a".to_string()]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("'service'"));
    }

    #[test]
    fn check_tolerates_unreached_saturation() {
        // A fast host may never saturate: saturated=false with every step
        // met must still pass the check.
        let mut outcome = fake_outcome("a", "engine");
        outcome.saturated = false;
        let outcomes = [outcome, fake_outcome("a", "service")];
        let doc = merge_into_artifact(None, &outcomes);
        assert!(check_artifact(&doc, &["a".to_string()]).is_empty());
    }
}
