//! The `experiments` command line refuses what it does not know: an unknown
//! experiment id or flag exits with code 2 and names the argument before
//! any experiment runs, so a mistyped id cannot pass as an empty success.
//! Subcommands do the same for an unknown flag and for a bad, out-of-range
//! or missing value, instead of panicking or running without the flag.

use std::process::Command;

/// Run `experiments args`, require exit code 2 with nothing on stdout, and
/// return what it printed on stderr.
fn refusal(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    assert_eq!(
        output.status.code(),
        Some(2),
        "experiments {args:?} must exit 2\nstdout:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert!(output.stdout.is_empty(), "experiments {args:?} ran something before refusing");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unknown_experiment_ids_and_flags_exit_2_naming_the_argument() {
    assert!(refusal(&["e99"]).contains("unknown experiment id `e99`"));
    // a known id beside the typo does not rescue it
    assert!(refusal(&["e2", "e2x"]).contains("unknown experiment id `e2x`"));
    assert!(refusal(&["e2", "--fulll"]).contains("unknown flag `--fulll`"));
    assert!(refusal(&["bench", "--check"]).contains("--check needs a baseline path"));
}

#[test]
fn subcommands_refuse_unknown_flags_and_bad_or_missing_values_naming_the_argument() {
    let dir = std::env::temp_dir().join(format!("lps-cli-refusal-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    assert!(refusal(&["checkpoint"]).contains("--dir"));
    assert!(refusal(&["crashtest", "--dir", dir_arg, "--kills", "many"]).contains("--kills"));
    assert!(refusal(&["checkpoint", "--dir", dir_arg, "--shard", "3"])
        .contains("unknown flag `--shard`"));
    assert!(refusal(&["feed", "--addr", "127.0.0.1:1", "--update", "5"])
        .contains("unknown flag `--update`"));
    // values that parse but lie outside what the run can take
    assert!(refusal(&["checkpoint", "--dir", dir_arg, "--shards", "0"]).contains("--shards"));
    assert!(refusal(&["checkpoint", "--dir", dir_arg, "--shards", "65536"]).contains("--shards"));
    assert!(refusal(&["serve", "--dim", "0"]).contains("--dim"));
    let wrote = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!wrote, "a refused checkpoint wrote {}", dir.display());
}
