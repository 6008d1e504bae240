//! End-to-end checks of the benchmark binary: the manifest it renders,
//! a tiny op of every workload through every check, and its refusal to run
//! outside a repository checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root")
        .to_path_buf()
}

fn bench(cwd: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("run perfbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The `"name"` values of one manifest section.
fn names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{section}\"")).expect("section");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn manifest_is_the_committed_benchmark_json() {
    let (ok, out) = bench(&repo_root(), &["manifest"]);
    assert!(ok);
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(
        out, committed,
        "regenerate with `perfbench manifest > BENCHMARK.json`"
    );
}

#[test]
fn tiny_ops_of_every_workload_pass_every_check() {
    let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    for workload in names(&manifest, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                &workload,
                "--seed",
                "11",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--tiny",
            ];
            let (ok, out) = bench(&repo_root(), &args);
            assert!(ok, "{workload} trace {trace}:\n{out}");
            let last = out.lines().last().unwrap_or_default();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": ")
                    && last.contains("\"failed\": 0,"),
                "{workload} trace {trace}: {last}"
            );
            for name in names(&manifest, section) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
                assert!(
                    !last[at + key.len()..].starts_with("null"),
                    "{workload}: {name} is null"
                );
            }
        }
    }
}

#[test]
fn refuses_to_run_outside_a_checkout() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("not-a-checkout");
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, out) = bench(&dir, &["--workload", "paper16-offline", "--seed", "1"]);
    assert!(!ok);
    assert!(!out.contains("\"correct\""));
}
