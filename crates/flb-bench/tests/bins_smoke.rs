//! Smoke tests: every harness binary runs to completion in `--quick` mode
//! and prints its headline structure. This keeps the figure/table
//! regeneration commands themselves under test.

use std::process::Command;

fn run_quick(exe: &str) -> String {
    let out = Command::new(exe)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table1_reproduces_exactly() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .output()
        .expect("launch table1");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1 reproduction: EXACT"));
}

#[test]
fn fig2_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig2"));
    assert!(out.contains("scheduling cost vs P"));
    assert!(out.contains("shape checks"));
    // The two robust shape claims must hold even on the quick suite.
    assert!(out.contains("ETF cost grows with P"));
}

#[test]
fn fig3_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig3"));
    assert!(out.contains("FLB speedup vs P"));
    assert!(out.contains("CCR = 0.2"));
    assert!(out.contains("CCR = 5"));
    assert!(out.contains("Stencil outscales LU"));
}

#[test]
fn fig4_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig4"));
    assert!(out.contains("normalised schedule lengths"));
    assert!(out.contains("claim checks"));
    assert!(out.contains("FLB consistently outperforms DSC-LLB"));
}

#[test]
fn ablations_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_ablations"));
    for id in ["A1", "A2a", "A2b", "A3"] {
        assert!(out.contains(id), "missing ablation {id}");
    }
}

#[test]
fn complexity_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_complexity"));
    assert!(out.contains("X3.1"));
    assert!(out.contains("X3.2"));
    assert!(out.contains("X3.3"));
    assert!(out.contains("EP-pick rate"));
}

#[test]
fn contention_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_contention"));
    assert!(out.contains("mean inflation"));
    assert!(out.contains("FLB"));
}

#[test]
fn extended_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_extended"));
    for alg in ["MCP-ins", "DLS", "HEFT", "HLFET", "FLB"] {
        assert!(out.contains(alg), "missing {alg}");
    }
}

#[test]
fn runtime_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_runtime"));
    assert!(out.contains("runtime/BL"));
    assert!(out.contains("runtime/FIFO"));
}

#[test]
fn duplication_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_duplication"));
    assert!(out.contains("makespan CPD/FLB"));
    assert!(out.contains("extra work"));
}

#[test]
fn robustness_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_robustness"));
    assert!(out.contains("±10%"));
    assert!(out.contains("±50%"));
}

#[test]
fn faults_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_faults"));
    assert!(out.contains("One processor fails"));
    assert!(out.contains("FLB/naive/clair"));
    assert!(out.contains("Message loss"));
    assert!(out.contains("Stragglers"));
}

#[test]
fn kernel_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_kernel"));
    assert!(out.contains("X15"));
    assert!(out.contains("lu-20k"));
    assert!(out.contains("tasks/s"));
    // Quick mode replays through the reference: exactness must hold.
    assert!(out.contains("1.0000"));
}

#[test]
fn kernel_json_artifact_round_trips_through_the_gate() {
    // Emit an artifact at a tiny size, then gate a second run against
    // copies of it whose throughput is rewritten far below and far above
    // anything the run can measure. Both branches of the gate run every
    // time, and neither depends on how busy the machine is.
    let dir = std::env::temp_dir().join(format!("flb-kernel-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("BENCH_test.json");
    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kernel"));
        cmd.args(["--tasks", "5000", "--procs", "8", "--no-reference"]);
        cmd.args(extra);
        cmd.output().expect("launch kernel bin")
    };
    let emit = run(&["--json", artifact.to_str().unwrap()]);
    assert!(emit.status.success(), "emit failed: {emit:?}");
    let emitted = std::fs::read_to_string(&artifact).expect("read artifact");
    let with_throughput = |tps: &str| -> String {
        let lines: Vec<String> = emitted
            .lines()
            .map(|line| match line.split_once("\"tasks_per_second\": ") {
                Some((indent, _)) => format!("{indent}\"tasks_per_second\": {tps},"),
                None => line.to_owned(),
            })
            .collect();
        assert_ne!(lines.join("\n"), emitted.trim_end(), "no throughput field");
        lines.join("\n")
    };
    let gate_against = |tps: &str| {
        let path = dir.join(format!("BENCH_gate_{tps}.json"));
        std::fs::write(&path, with_throughput(tps)).expect("write baseline");
        let out = run(&["--baseline", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        out
    };

    let pass = gate_against("1.0");
    assert!(
        pass.status.success(),
        "gate failed against a far-slower baseline\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&pass.stdout),
        String::from_utf8_lossy(&pass.stderr)
    );
    let text = String::from_utf8_lossy(&pass.stdout);
    assert!(text.contains("regression gate"));
    assert!(text.contains("ok"));

    let fail = gate_against("1000000000000000.0");
    assert_eq!(
        fail.status.code(),
        Some(1),
        "gate passed against a far-faster baseline\nstdout:\n{}",
        String::from_utf8_lossy(&fail.stdout)
    );
    assert!(String::from_utf8_lossy(&fail.stderr).contains("REGRESSION"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hetero_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_hetero"));
    assert!(out.contains("uniform (1x)"));
    assert!(out.contains("extreme (1-8x)"));
    assert!(out.contains("HEFT"));
}
