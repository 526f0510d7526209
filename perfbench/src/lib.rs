//! perfbench — the end-to-end and per-layer benchmark of perfvar.
//!
//! One process runs one workload from a seed (see `README.md` in this
//! directory for the workloads, the metrics and the noise record). The
//! untraced run reports the end-to-end metrics; the traced run records
//! spans around every timed call and reports the per-layer ledger.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workloads;

use stats::{Better, Summary};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A fault planted on purpose to show that an output check catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip one byte of one served body before it is checked.
    FlipBody,
    /// Report a wrong wave origin in one diagnosis before it is checked.
    WrongOrigin,
}

impl Inject {
    /// Parses the `--inject` argument.
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "flip-body" => Some(Inject::FlipBody),
            "wrong-origin" => Some(Inject::WrongOrigin),
            _ => None,
        }
    }
}

/// Everything one run shares: its arguments, its scratch directory, the
/// span recorder and the tally of checked ops.
pub struct Ctx {
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Span recorder, enabled in a traced run.
    pub tracer: spans::Tracer,
    /// The fault to plant, if any.
    pub inject: Option<Inject>,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// Hardware parallelism.
    pub nproc: usize,
    /// Checked ops of the end-to-end phase.
    pub tally: oracle::Tally,
}

impl Ctx {
    /// A fresh subdirectory of the scratch directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The reported value.
    pub value: f64,
    /// Best/median/stddev of the samples behind it, when it has several.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn median_of(
        name: &'static str,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) -> Option<Metric> {
        let summary = Summary::of(samples, better)?;
        Some(Metric {
            name,
            unit,
            better,
            value: summary.median,
            summary: Some(summary),
        })
    }

    /// A metric with a single value.
    pub fn single(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            summary: None,
        }
    }
}

/// One timed op of the end-to-end phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time of the op (or request), ms.
    pub ms: f64,
    /// Whether its output passed the check.
    pub ok: bool,
    /// Whether spans were recorded around it.
    pub traced: bool,
    /// Which kind of op it was (serve-mixed: the route and archive), so
    /// traced and untraced ops are only compared within a kind.
    pub kind: usize,
}

/// What a workload's measured phase produced.
#[derive(Default)]
pub struct Measured {
    /// The latencies `p50_ref_ms` and the printed quantiles are taken over.
    pub latencies: Vec<Sample>,
    /// Wall time of each [`host::SpeedProbe`] round run among the ops, ms.
    pub probe_ms: Vec<f64>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
