//! Content-addressed result cache: an in-memory LRU layer with an
//! optional on-disk JSON spill.
//!
//! Keys are 128-bit values derived by [`cache_key`] from the *content*
//! of the request, never from file paths or timestamps: the archive's
//! byte digest ([`perfvar_trace::format::digest::digest_path`]), the
//! result-affecting configuration fields
//! ([`AnalysisConfig::result_key`], which excludes the thread count —
//! the pipeline is bit-identical at every parallelism), the recovery
//! mode, and the number of refinement steps. Two requests that would
//! produce the same bytes share one entry; flipping any input byte or
//! any result-affecting knob moves to a different key.
//!
//! The value is the *rendered* response body (plus one body per metric
//! channel), not the [`Analysis`](perfvar_analysis::Analysis) value: warm hits are a string clone,
//! and byte-identity with the CLI's `--json` output is pinned at fill
//! time instead of depending on re-serialisation.

use perfvar_analysis::{AnalysisConfig, OutOfCoreAnalysis, RecoveryMode};
use perfvar_trace::format::digest::Fnv128;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Derives the content-addressed cache key of one analysis request.
pub fn cache_key(
    digest: u128,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    refine_steps: usize,
) -> u128 {
    let mut h = Fnv128::new();
    h.write(&digest.to_le_bytes());
    let config_key = config.result_key();
    h.write_len(config_key.len() as u64);
    h.write(config_key.as_bytes());
    h.write(&[matches!(mode, RecoveryMode::Partial) as u8]);
    h.write(&(refine_steps as u64).to_le_bytes());
    h.finish()
}

/// One cached analysis: the rendered response bodies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CachedResult {
    /// The `/analyze` body — pretty-printed [`Analysis`](perfvar_analysis::Analysis) JSON plus a
    /// trailing newline, byte-identical to `perfvar analyze --json`.
    pub body: String,
    /// One `(metric name, rendered CounterAnalysis JSON)` pair per
    /// metric channel of the trace, for `…&metric=NAME` requests.
    pub metrics: Vec<(String, String)>,
    /// Function names of the analysed trace, indexed by function id —
    /// `/compare` uses them to report named per-function deltas without
    /// re-reading the archive. Defaults to empty for spills written by
    /// older daemons (deltas then fall back to `fn#<id>` names).
    #[serde(default)]
    pub functions: Vec<String>,
}

impl CachedResult {
    /// Renders an out-of-core analysis into its cacheable bodies,
    /// reproducing the CLI's `--json` composition
    /// (`to_string_pretty(to_value(analysis))` + `println!`) byte for
    /// byte.
    pub fn render(result: &OutOfCoreAnalysis) -> Result<CachedResult, String> {
        let doc = serde_json::to_value(&result.analysis);
        let mut body =
            serde_json::to_string_pretty(&doc).map_err(|e| format!("serialisation failed: {e}"))?;
        body.push('\n');
        let mut metrics = Vec::with_capacity(result.analysis.counters.len());
        for counter in &result.analysis.counters {
            let name = result.meta.registry.metric(counter.metric).name.clone();
            let mut rendered = serde_json::to_string_pretty(&serde_json::to_value(counter))
                .map_err(|e| format!("serialisation failed: {e}"))?;
            rendered.push('\n');
            metrics.push((name, rendered));
        }
        let functions = result
            .meta
            .registry
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        Ok(CachedResult {
            body,
            metrics,
            functions,
        })
    }
}

struct LruState {
    tick: u64,
    entries: HashMap<u128, (u64, Arc<CachedResult>)>,
}

/// The two-layer result cache: a bounded in-memory LRU map, spilled as
/// one JSON file per key into `disk_dir` when configured. Memory hits
/// never touch the filesystem; disk hits are promoted back into memory.
pub struct ResultCache {
    capacity: usize,
    disk_dir: Option<PathBuf>,
    state: Mutex<LruState>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries in memory (a capacity
    /// of 0 is treated as 1), spilling to `disk_dir` if given.
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            disk_dir,
            state: Mutex::new(LruState {
                tick: 0,
                entries: HashMap::new(),
            }),
        }
    }

    fn spill_file(&self, key: u128) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:032x}.json")))
    }

    /// Memory-layer lookup only: no filesystem access on any outcome.
    pub fn get_memory(&self, key: u128) -> Option<Arc<CachedResult>> {
        let mut state = self.state.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        let (stamp, entry) = state.entries.get_mut(&key)?;
        *stamp = tick;
        Some(entry.clone())
    }

    /// Full lookup: memory first, then the disk spill (promoting a disk
    /// hit back into the memory layer).
    pub fn get(&self, key: u128) -> Option<Arc<CachedResult>> {
        if let Some(entry) = self.get_memory(key) {
            return Some(entry);
        }
        let bytes = std::fs::read(self.spill_file(key)?).ok()?;
        let decoded: CachedResult = serde_json::from_slice(&bytes).ok()?;
        let entry = Arc::new(decoded);
        self.insert_memory(key, entry.clone());
        Some(entry)
    }

    /// Stores an entry in memory and, if configured, on disk. A spill
    /// file is replaced crash-safely, so a reader never sees a torn
    /// entry. Disk-write failures are swallowed: the spill is an
    /// optimisation, not a durability promise.
    pub fn put(&self, key: u128, entry: Arc<CachedResult>) {
        if let Some(file) = self.spill_file(key) {
            if let Some(dir) = &self.disk_dir {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Ok(json) = serde_json::to_string(&*entry) {
                let _ = crate::store::replace_file(&file, json.as_bytes());
            }
        }
        self.insert_memory(key, entry);
    }

    fn insert_memory(&self, key: u128, entry: Arc<CachedResult>) {
        let mut state = self.state.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(key, (tick, entry));
        while state.entries.len() > self.capacity {
            let oldest = state
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty above capacity");
            state.entries.remove(&oldest);
        }
    }

    /// Entries currently resident in the memory layer.
    pub fn len_memory(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            body: format!("{{\"tag\": \"{tag}\"}}\n"),
            metrics: vec![("CYC".to_string(), format!("{{\"m\": \"{tag}\"}}\n"))],
            functions: vec!["main".to_string()],
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2, None);
        cache.put(1, entry("a"));
        cache.put(2, entry("b"));
        assert!(cache.get(1).is_some()); // touch 1 → 2 is now oldest
        cache.put(3, entry("c"));
        assert_eq!(cache.len_memory(), 2);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn disk_spill_survives_memory_eviction() {
        let dir = std::env::temp_dir()
            .join("perfvar-server-tests")
            .join("spill");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.put(7, entry("spilled"));
        cache.put(8, entry("resident")); // evicts 7 from memory
        assert!(cache.get_memory(7).is_none());
        let back = cache.get(7).expect("reloaded from disk");
        assert_eq!(*back, *entry("spilled"));
        // The disk hit was promoted: now resident in memory again.
        assert!(cache.get_memory(7).is_some());
        // A fresh cache over the same directory sees the spilled entries.
        let fresh = ResultCache::new(4, Some(dir));
        assert_eq!(*fresh.get(8).expect("from disk"), *entry("resident"));
    }

    #[test]
    fn cache_key_separates_inputs() {
        let config = AnalysisConfig::default();
        let base = cache_key(1, &config, RecoveryMode::Strict, 0);
        assert_eq!(base, cache_key(1, &config, RecoveryMode::Strict, 0));
        assert_ne!(base, cache_key(2, &config, RecoveryMode::Strict, 0));
        assert_ne!(base, cache_key(1, &config, RecoveryMode::Partial, 0));
        assert_ne!(base, cache_key(1, &config, RecoveryMode::Strict, 1));
        let threaded = AnalysisConfig {
            threads: 12,
            ..config.clone()
        };
        assert_eq!(base, cache_key(1, &threaded, RecoveryMode::Strict, 0));
    }
}
