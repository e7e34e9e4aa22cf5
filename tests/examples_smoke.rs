//! Smoke tests: the shipped examples must build and exit 0.
//!
//! `cargo test` always compiles the package's examples, so the binaries are
//! guaranteed to sit in `target/<profile>/examples/` next to this test
//! binary's `deps/` directory; we invoke them directly rather than going
//! through a nested `cargo run` (which would contend for the build lock).

use std::path::PathBuf;
use std::process::Command;

fn example_binary(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // strip the test binary file name -> .../deps
    if dir.ends_with("deps") {
        dir.pop(); // -> target/<profile>
    }
    dir.join("examples").join(name)
}

fn run_example(name: &str) {
    let bin = example_binary(name);
    assert!(
        bin.exists(),
        "example binary {} not found at {} (cargo test should have built it)",
        name,
        bin.display()
    );
    let output = Command::new(&bin).output().expect("spawn example");
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty(), "example {name} printed nothing on stdout");
}

#[test]
fn quickstart_example_exits_zero() {
    run_example("quickstart");
}

#[test]
fn find_duplicates_example_exits_zero() {
    run_example("find_duplicates");
}

#[test]
fn heavy_hitters_example_exits_zero() {
    run_example("heavy_hitters");
}

#[test]
fn replica_divergence_example_exits_zero() {
    run_example("replica_divergence");
}

#[test]
fn parallel_ingest_example_exits_zero() {
    run_example("parallel_ingest");
}

#[test]
fn registry_tenants_example_exits_zero() {
    run_example("registry_tenants");
}
