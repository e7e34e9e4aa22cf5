//! The `experiments` command line refuses what it does not know: an unknown
//! experiment id or flag exits with code 2 and names the argument before
//! any experiment runs, so a mistyped id cannot pass as an empty success.

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
