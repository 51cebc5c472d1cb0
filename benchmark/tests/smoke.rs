//! `--smoke`: all six workloads end to end on 50 k events, one run of each
//! kind, checked against the oracle — and the names the binary prints are
//! exactly the names `/BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The `"name": "…"` values of the manifest, workloads first.
fn declared_names(manifest: &str) -> (Vec<String>, BTreeSet<String>) {
    let names_in = |text: &str| -> Vec<String> {
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let metrics_at = manifest.find("\"end_to_end\"").expect("end_to_end section");
    (
        names_in(&manifest[..metrics_at]),
        names_in(&manifest[metrics_at..]).into_iter().collect(),
    )
}

#[test]
fn smoke_suite_passes_and_prints_exactly_the_declared_names() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let manifest = std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let (workloads, metrics) = declared_names(&manifest);
    assert_eq!(workloads.len(), 6);

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let run = Command::new(env!("CARGO_BIN_EXE_spectre-benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .current_dir(repo)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    for workload in &workloads {
        let lines: Vec<Vec<&str>> = stdout
            .lines()
            .filter(|line| line.split(' ').next() == Some(workload.as_str()))
            .map(|line| line.split(' ').collect())
            .collect();
        let count = |what: &str| -> u64 {
            lines
                .iter()
                .find(|l| l[1] == what)
                .unwrap_or_else(|| panic!("{workload} prints {what}"))[2]
                .parse()
                .expect("a count")
        };
        assert!(count("attempted") > 0, "{workload}");
        assert_eq!(count("failed"), 0, "{workload}\n{stdout}");
        let printed: BTreeSet<String> = lines
            .iter()
            .map(|l| l[1].to_string())
            .filter(|name| name != "attempted" && name != "failed")
            .collect();
        assert_eq!(printed, metrics, "{workload} prints the declared metrics");
    }
    for name in workloads.iter().chain(&metrics) {
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "{name}"
        );
    }
    let written = std::fs::read_to_string(&out).expect("--out file");
    assert!(written.contains("\"smoke\": true") && written.contains("\"socket_2c\""));
}
