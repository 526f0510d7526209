//! Negative checks of the output oracles: a wrong output must be caught,
//! counted in `error_frac` and make the command exit non-zero.

use perfbench::inputs;
use perfbench::oracle::{check_wave, json_digest};
use perfvar_analysis::diagnose::{diagnose_meta, DiagnoseConfig};
use perfvar_analysis::report::{analyze, AnalysisConfig};
use perfvar_trace::{ProcessId, TraceMeta};
use std::path::Path;
use std::process::Command;

#[test]
fn digest_ignores_layout_but_not_content() {
    let data = serde_json::json!({
        "a": serde_json::json!([1, 2.5, "x y"]),
        "b": serde_json::json!(null),
    });
    let doc = serde_json::json!({"ok": true, "data": data});
    let pretty = serde_json::to_string_pretty(&doc).expect("serialises");
    let compact = serde_json::to_string(&doc).expect("serialises");
    assert_ne!(pretty, compact);
    assert_eq!(
        json_digest(pretty.as_bytes()),
        json_digest(compact.as_bytes())
    );
    for i in 0..pretty.len() {
        let mut flipped = pretty.clone().into_bytes();
        flipped[i] ^= 0x01;
        // Whitespace flipped into other whitespace is layout, not content.
        if flipped[i].is_ascii_whitespace() && pretty.as_bytes()[i].is_ascii_whitespace() {
            continue;
        }
        assert_ne!(
            json_digest(&flipped),
            json_digest(pretty.as_bytes()),
            "flipping byte {i} went unnoticed"
        );
    }
}

#[test]
fn a_planted_wave_origin_fails_the_check() {
    let trace = inputs::wave(64, 40, 5).expect("simulates");
    let analysis = analyze(&trace, &AnalysisConfig::default()).expect("analyses");
    let mut d = diagnose_meta(
        &TraceMeta::of(&trace),
        &analysis,
        &DiagnoseConfig::default(),
    );
    check_wave(&d, 16, 10).expect("the real diagnosis passes");
    let wave = d.wave.as_mut().expect("a wave");
    wave.origin = ProcessId::from_index(17);
    let err = check_wave(&d, 16, 10).expect_err("a wrong origin fails");
    assert!(err.contains("origin 17"), "{err}");
}

/// Runs the benchmark binary from the repository root with a planted
/// fault and returns its exit code and last stdout line.
fn run_injected(workload: &str, fault: &str) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", "0", "--inject", fault])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

fn failed_count(last: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(
        v.get("correct").and_then(|c| c.as_bool()),
        Some(false),
        "{last}"
    );
    v.get("failed")
        .and_then(|f| f.as_u64())
        .expect("failed count")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs a whole workload; use --release")]
fn a_flipped_body_byte_fails_serve_mixed() {
    let (code, last) = run_injected("serve-mixed", "flip-body");
    assert_eq!(code, Some(1), "{last}");
    assert_eq!(failed_count(&last), 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs a whole workload; use --release")]
fn a_wrong_wave_origin_fails_diagnose_exact() {
    let (code, last) = run_injected("diagnose-exact", "wrong-origin");
    assert_eq!(code, Some(1), "{last}");
    assert_eq!(failed_count(&last), 1);
}
