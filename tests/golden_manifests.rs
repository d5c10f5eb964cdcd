//! The study's deterministic outputs — its manifests, the `repro check`
//! report, and the CSV tables — pinned byte for byte to the committed
//! goldens in `ci/golden/`.
//!
//! The other determinism checks compare configurations with each other
//! (`--jobs`, `--sim-threads`, killed-and-resumed runs); a change that
//! moves a table the same way everywhere passes all of them. These
//! tests compare against fixed bytes instead. `ci/golden/README.md`
//! gives the commands that regenerate the goldens; every golden diff
//! must be explained in the change that makes it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("ci/golden")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `repro <args>`, asserts it succeeded, and returns its stdout.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Runs `repro <args> <flag> <dir>` and returns the bytes of `file` in
/// that fresh directory.
fn produce(tag: &str, args: &[&str], flag: &str, file: &str) -> Vec<u8> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rodinia-golden-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir path is UTF-8");
    stdout_of(&[args, &[flag, dir_arg]].concat());
    let bytes = fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file} not written: {e}"));
    let _ = fs::remove_dir_all(&dir);
    bytes
}

fn assert_matches_golden(file: &str, got: &[u8]) {
    let want = golden(file);
    if got == want.as_slice() {
        return;
    }
    let at = got
        .iter()
        .zip(&want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let context = |bytes: &[u8]| {
        String::from_utf8_lossy(&bytes[at.saturating_sub(60)..(at + 60).min(bytes.len())])
            .into_owned()
    };
    panic!(
        "{file} differs from ci/golden/{file} at byte {at} (got {} bytes, golden {}):\n  \
         got:    …{}…\n  golden: …{}…\n\
         see ci/golden/README.md to regenerate, and explain the diff",
        got.len(),
        want.len(),
        context(got),
        context(&want),
    );
}

#[test]
fn study_manifest_matches_golden() {
    let got = produce("study", &["all", "tiny"], "--store", "STUDY_manifest.json");
    assert_matches_golden("STUDY_manifest.json", &got);
}

#[test]
fn critpath_manifest_matches_golden() {
    let got = produce(
        "critpath",
        &["analyze", "tiny"],
        "--json",
        "CRITPATH_manifest.json",
    );
    assert_matches_golden("CRITPATH_manifest.json", &got);
}

#[test]
fn audit_manifest_matches_golden() {
    let got = produce("audit", &["audit", "tiny"], "--json", "AUDIT_manifest.json");
    assert_matches_golden("AUDIT_manifest.json", &got);
}

#[test]
fn check_report_matches_golden() {
    let got = produce("check", &["check", "tiny"], "--json", "check_report.json");
    assert_matches_golden("check_report.json", &got);
}

#[test]
fn study_csv_matches_golden() {
    let got = stdout_of(&["all", "tiny", "--csv"]);
    assert_matches_golden("STUDY_tables.csv", &got);
}
