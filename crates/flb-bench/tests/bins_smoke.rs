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
fn hetero_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_hetero"));
    assert!(out.contains("uniform (1x)"));
    assert!(out.contains("extreme (1-8x)"));
    assert!(out.contains("HEFT"));
}
