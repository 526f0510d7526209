//! Output checks. Every op of every workload passes through one of these
//! before it counts; an op fails on an error or on a wrong output.

use perfvar_analysis::diagnose::Diagnosis;
use perfvar_analysis::findings::FindingKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Attempted and failed ops, plus the first few failure messages.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one op; returns whether it passed.
    pub fn record(&self, outcome: Result<(), String>) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut errors = self.errors.lock().expect("no panic while holding errors");
                if errors.len() < 8 {
                    errors.push(e);
                }
                false
            }
        }
    }

    /// Ops counted.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The first failure messages.
    pub fn errors(&self) -> Vec<String> {
        self.errors
            .lock()
            .expect("no panic while holding errors")
            .clone()
    }
}

/// `Ok` when `cond` holds, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// 64-bit FNV-1a over JSON text with the whitespace outside strings
/// skipped, so a pretty-printed body and the compact rendering of the
/// same value digest alike, while any change of a key, a string or a
/// number does not.
pub fn json_digest(text: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut in_string = false;
    let mut escaped = false;
    for &b in text {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
        } else if b.is_ascii_whitespace() {
            continue;
        }
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the `/v1` success envelope around `data`.
pub fn envelope_digest(data: serde_json::Value) -> u64 {
    let doc = serde_json::json!({ "ok": true, "data": data });
    json_digest(
        serde_json::to_string(&doc)
            .expect("a value tree always serialises")
            .as_bytes(),
    )
}

/// Checks a diagnosis of the desync wave: the origin rank, the ordinal
/// the wave left it at, and a propagating-wait top finding.
pub fn check_wave(d: &Diagnosis, origin: usize, start_ordinal: usize) -> Result<(), String> {
    let wave = d.wave.as_ref().ok_or("no wave detected")?;
    ensure(wave.origin.index() == origin, || {
        format!("wave origin {} (expected {origin})", wave.origin.index())
    })?;
    ensure(wave.start_ordinal == start_ordinal, || {
        format!(
            "wave start ordinal {} (expected {start_ordinal})",
            wave.start_ordinal
        )
    })?;
    match d.findings.first().map(|f| &f.kind) {
        Some(FindingKind::PropagatingWait { .. }) => Ok(()),
        other => Err(format!("top finding {other:?} is not PropagatingWait")),
    }
}
