//! Seeded inputs: the simulated traces every workload analyses, built the
//! way `perfvar generate` builds them, and the archives they are written
//! to.

use perfvar_sim::workloads::{CosmoSpecs, DesyncWave, Workload};
use perfvar_trace::format::write_trace_file;
use perfvar_trace::Trace;
use std::path::{Path, PathBuf};

/// `perfvar generate cosmo-specs --ranks R --iterations I --seed S`.
pub fn cosmo(ranks: usize, iterations: usize, seed: u64) -> Result<Trace, String> {
    // --ranks is read as a square-ish grid, exactly like the CLI.
    let cols = (ranks as f64).sqrt().round().max(1.0) as usize;
    let rows = ranks.div_ceil(cols);
    let mut w = CosmoSpecs::small(rows, cols, iterations);
    w.seed = seed;
    perfvar_sim::simulate(&w.spec()).map_err(|e| format!("simulating cosmo-specs: {e}"))
}

/// `perfvar generate desync-wave --ranks R --iterations I --seed S`: the
/// wave starts on rank `R / 4` at ordinal `I / 4`.
pub fn wave(ranks: usize, iterations: usize, seed: u64) -> Result<Trace, String> {
    let mut w = DesyncWave::new(ranks, iterations, ranks / 4);
    w.seed = seed;
    perfvar_sim::simulate(&w.spec()).map_err(|e| format!("simulating desync-wave: {e}"))
}

/// Writes `trace` as the archive `dir/name.pvta` and returns its path.
pub fn archive(trace: &Trace, dir: &Path, name: &str) -> Result<PathBuf, String> {
    let path = dir.join(format!("{name}.pvta"));
    write_trace_file(trace, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Every stream file of an archive, in name order.
pub fn stream_files(archive: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(archive)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "pvts"));
    files.sort();
    files
}

/// A small deterministic generator (SplitMix64) for the request mix and
/// the cold-request parameters; the program never sees it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_9c4a_11d7)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
