//! Process-similarity clustering on SOS-time profiles.
//!
//! The paper's related work discusses two complementary ideas this
//! module provides as an extension: grouping structurally equal
//! processes to summarise large runs (Mohror et al.) and classifying
//! behaviour by clustering (González et al.). Here, each process is a
//! vector of per-segment SOS-times; agglomerative clustering with
//! average linkage groups processes with similar computational
//! behaviour. For the COSMO-SPECS case study this cleanly separates the
//! six cloud-loaded ranks from the other 94; for a balanced run it
//! produces a single cluster.

use crate::sos::SosMatrix;
use perfvar_trace::ProcessId;
use serde::{Deserialize, Serialize};

/// Clustering parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Stop merging when the closest pair of clusters is farther apart
    /// than `distance_threshold × (global RMS of SOS values)`.
    /// Relative, so workloads of any absolute magnitude cluster alike.
    pub distance_threshold: f64,
    /// If set, ignore the threshold and merge down to exactly this many
    /// clusters (or fewer if there are fewer processes).
    pub num_clusters: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            distance_threshold: 0.25,
            num_clusters: None,
        }
    }
}

/// One cluster of behaviourally similar processes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member processes, ascending.
    pub members: Vec<ProcessId>,
    /// The medoid: the member closest to the cluster mean profile —
    /// a natural *representative* for summarised visualisation.
    pub representative: ProcessId,
    /// Mean per-segment SOS profile of the cluster.
    pub centroid: Vec<f64>,
}

/// The clustering result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcessClustering {
    /// Clusters, largest first.
    pub clusters: Vec<Cluster>,
}

impl ProcessClustering {
    /// Clusters the processes of `matrix`.
    pub fn compute(matrix: &SosMatrix, config: ClusterConfig) -> ProcessClustering {
        ProcessClustering::compute_capped(matrix, config, usize::MAX)
    }

    /// [`ProcessClustering::compute`], then — if the threshold stopped
    /// with more than `cap` clusters — keeps merging down to `cap`. The
    /// greedy merge order does not depend on the stop rule, so this
    /// equals re-clustering with `num_clusters: Some(cap)` without
    /// redoing the merges the threshold pass already made.
    pub(crate) fn compute_capped(
        matrix: &SosMatrix,
        config: ClusterConfig,
        cap: usize,
    ) -> ProcessClustering {
        let p = matrix.num_processes();
        if p == 0 {
            return ProcessClustering {
                clusters: Vec::new(),
            };
        }
        // The profiles become the initial centroids; the medoids are
        // picked from the matrix rows afterwards, so no second copy.
        let profiles = padded_profiles(matrix);
        let stop_distance = stop_distance(&profiles, config.distance_threshold);
        let target = config.num_clusters.map(|k| k.max(1));
        let mut agglomeration = Agglomeration::new(profiles, vec![1; p]);
        agglomeration.merge_while(|live, d| match target {
            Some(k) => live > k,
            None => d <= stop_distance,
        });
        agglomeration.merge_while(|live, _| live > cap);
        let merged = agglomeration.finish();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (rank, &root) in merged.root.iter().enumerate() {
            members[root].push(rank);
        }
        // Every surviving slot holds at least itself.
        let groups = members
            .into_iter()
            .zip(merged.centroids)
            .filter(|(m, _)| !m.is_empty());
        clusters_of(matrix, groups)
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters (empty trace).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster containing `process`, if any.
    pub fn cluster_of(&self, process: ProcessId) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.members.contains(&process))
    }

    /// Clusters other than the largest — the "unusual" processes a
    /// summarised view must not hide.
    pub fn minority_clusters(&self) -> &[Cluster] {
        if self.clusters.is_empty() {
            &[]
        } else {
            &self.clusters[1..]
        }
    }
}

pub(crate) fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Per-process SOS profiles, ragged rows padded with zeros to a
/// rectangular matrix.
fn padded_profiles(matrix: &SosMatrix) -> Vec<Vec<f64>> {
    let p = matrix.num_processes();
    let width = (0..p)
        .map(|i| matrix.process_sos(ProcessId::from_index(i)).len())
        .max()
        .unwrap_or(0);
    (0..p)
        .map(|i| {
            let mut v = Vec::with_capacity(width);
            padded_row(matrix, i, width, &mut v);
            v
        })
        .collect()
}

/// Process `i`'s SOS profile padded with zeros to `width`, into `out`.
fn padded_row(matrix: &SosMatrix, i: usize, width: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        matrix
            .process_sos(ProcessId::from_index(i))
            .iter()
            .map(|d| d.0 as f64),
    );
    out.resize(width, 0.0);
}

/// The merge stop distance: `threshold` scaled by the RMS of all values.
fn stop_distance(profiles: &[Vec<f64>], threshold: f64) -> f64 {
    let (sum, n) = profiles
        .iter()
        .flatten()
        .fold((0.0f64, 0usize), |(s, n), v| (s + v * v, n + 1));
    let rms = if n == 0 { 0.0 } else { (sum / n as f64).sqrt() };
    // An all-idle run (every SOS value zero) has rms == 0; the stop
    // distance is then exactly 0 so identical (all-zero) profiles still
    // merge — merging stops only on `d > stop_distance`.
    if rms == 0.0 {
        0.0
    } else {
        threshold * rms
    }
}

/// Builds the clusters from `(members, centroid)` groups: members
/// ascending, the medoid as representative, largest cluster first.
fn clusters_of(
    matrix: &SosMatrix,
    groups: impl Iterator<Item = (Vec<usize>, Vec<f64>)>,
) -> ProcessClustering {
    let mut profile = Vec::new();
    let mut clusters: Vec<Cluster> = groups
        .map(|(mut members, centroid)| {
            members.sort_unstable();
            // Medoid: member closest to the centroid, lowest rank on ties.
            let mut representative: Option<(usize, f64)> = None;
            for &m in &members {
                padded_row(matrix, m, centroid.len(), &mut profile);
                let d = euclidean(&profile, &centroid);
                if representative.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
                    representative = Some((m, d));
                }
            }
            Cluster {
                members: members.iter().map(|&m| ProcessId::from_index(m)).collect(),
                representative: ProcessId::from_index(representative.unwrap().0),
                centroid,
            }
        })
        .collect();
    clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
    ProcessClustering { clusters }
}

/// Agglomerative clustering with average linkage via centroid
/// bookkeeping, over cached pair distances.
///
/// Each step merges the closest live pair, ordered by `(d, i, j)` with
/// `total_cmp` on `d`: ties go to the lowest slot pair. Because a merge
/// always folds the higher slot into the lower one, a node's slot is its
/// lowest member, so this is the deterministic lowest-member-rank rule.
///
/// The distances live in a condensed upper triangle filled once
/// (p(p−1)/2 evaluations), and every row `i` remembers its nearest live
/// `j > i`. A merge recomputes only the merged node's distances and
/// rescans — from the cache — the rows whose nearest neighbour it
/// touched, so a run costs O(p²·d) in distances plus the rescans instead
/// of O(p³·d). Results are bit-identical to re-evaluating every pair on
/// every merge: the same `euclidean` on the same centroids, argument
/// order included.
pub(crate) struct Agglomeration {
    centroids: Vec<Vec<f64>>,
    sizes: Vec<usize>,
    /// The slot each slot was folded into; itself while live.
    parent: Vec<usize>,
    live: usize,
    /// `d(i, j)` for `i < j` at [`Agglomeration::pair`].
    dist: Vec<f64>,
    /// Per live row `i`: the nearest live `j > i` and its distance,
    /// lowest `j` on ties; `None` when no live slot follows `i`.
    nearest: Vec<Option<(usize, f64)>>,
}

/// The outcome of an [`Agglomeration`].
pub(crate) struct Merged {
    /// Per initial slot, the surviving slot it was merged into.
    pub root: Vec<usize>,
    /// Per slot, its centroid; empty for a slot that was merged away.
    pub centroids: Vec<Vec<f64>>,
}

impl Agglomeration {
    /// Starts from one node per centroid, `sizes[i]` members each.
    pub(crate) fn new(centroids: Vec<Vec<f64>>, sizes: Vec<usize>) -> Agglomeration {
        let n = centroids.len();
        debug_assert_eq!(sizes.len(), n);
        let mut dist = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                dist.push(euclidean(&centroids[i], &centroids[j]));
            }
        }
        let mut agglomeration = Agglomeration {
            centroids,
            sizes,
            parent: (0..n).collect(),
            live: n,
            dist,
            nearest: vec![None; n],
        };
        for i in 0..n {
            agglomeration.nearest[i] = agglomeration.scan_row(i);
        }
        agglomeration
    }

    /// Merges closest pairs for as long as `keep_merging(live, d)` holds
    /// for the closest pair at distance `d` among `live` nodes, and at
    /// least two nodes remain. May be called again to resume.
    pub(crate) fn merge_while(&mut self, mut keep_merging: impl FnMut(usize, f64) -> bool) {
        while self.live > 1 {
            let Some((i, j, d)) = self.closest() else {
                break;
            };
            if !keep_merging(self.live, d) {
                break;
            }
            self.merge(i, j);
        }
    }

    /// Resolves every slot to its surviving slot.
    pub(crate) fn finish(self) -> Merged {
        let mut root: Vec<usize> = Vec::with_capacity(self.parent.len());
        for (slot, &parent) in self.parent.iter().enumerate() {
            // A slot is only ever folded into a lower one.
            root.push(if parent == slot { slot } else { root[parent] });
        }
        Merged {
            root,
            centroids: self.centroids,
        }
    }

    fn is_live(&self, slot: usize) -> bool {
        self.parent[slot] == slot
    }

    /// Index of `d(i, j)`, `i < j`, in the condensed triangle.
    fn pair(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        let n = self.parent.len();
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }

    /// The nearest live `j > i` from the cached distances.
    fn scan_row(&self, i: usize) -> Option<(usize, f64)> {
        let n = self.parent.len();
        if i + 1 >= n {
            return None;
        }
        let row = &self.dist[self.pair(i, i + 1)..][..n - i - 1];
        let mut best: Option<(usize, f64)> = None;
        for (j, &d) in (i + 1..n).zip(row) {
            if self.is_live(j) && best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
                best = Some((j, d));
            }
        }
        best
    }

    /// The closest live pair: the first strict minimum over the rows in
    /// ascending order, i.e. the least `(d, i, j)`.
    fn closest(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, nearest) in self.nearest.iter().enumerate() {
            if let Some((j, d)) = *nearest {
                if best.is_none_or(|(_, _, bd)| d.total_cmp(&bd).is_lt()) {
                    best = Some((i, j, d));
                }
            }
        }
        best
    }

    /// Folds `j` into `i` (`i < j`) and repairs the cache.
    fn merge(&mut self, i: usize, j: usize) {
        let b = std::mem::take(&mut self.centroids[j]);
        let na = self.sizes[i] as f64;
        let nb = self.sizes[j] as f64;
        for (ca, cb) in self.centroids[i].iter_mut().zip(&b) {
            *ca = (*ca * na + cb * nb) / (na + nb);
        }
        self.sizes[i] += self.sizes[j];
        self.parent[j] = i;
        self.nearest[j] = None;
        self.live -= 1;

        let n = self.parent.len();
        for k in 0..n {
            if k == i || !self.is_live(k) {
                continue;
            }
            let (lo, hi) = (k.min(i), k.max(i));
            let d = euclidean(&self.centroids[lo], &self.centroids[hi]);
            let at = self.pair(lo, hi);
            self.dist[at] = d;
            if k < i {
                // Row k's other candidates are unchanged; only i moved
                // and j left.
                self.nearest[k] = match self.nearest[k] {
                    Some((m, _)) if m == i || m == j => self.scan_row(k),
                    Some((m, dm)) if d.total_cmp(&dm).then(i.cmp(&m)).is_lt() => Some((i, d)),
                    other => other,
                };
            }
        }
        self.nearest[i] = self.scan_row(i);
        for k in i + 1..j {
            if matches!(self.nearest[k], Some((m, _)) if m == j) {
                self.nearest[k] = self.scan_row(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::Segmentation;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};

    /// `groups` gives, per process, the per-iteration loads.
    fn trace_with_loads(groups: &[Vec<u64>]) -> SosMatrix {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for loads in groups {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for &load in loads {
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace: Trace = b.finish().unwrap();
        SosMatrix::from_segmentation(&Segmentation::new(&trace, &replay_all(&trace), f))
    }

    /// The reference agglomeration: every live pair re-evaluated on every
    /// merge, O(p³·d). The cached loop must equal it bit for bit.
    fn reference_compute(matrix: &SosMatrix, config: ClusterConfig) -> ProcessClustering {
        let profiles = padded_profiles(matrix);
        if profiles.is_empty() {
            return ProcessClustering {
                clusters: Vec::new(),
            };
        }
        let stop_distance = stop_distance(&profiles, config.distance_threshold);
        struct Node {
            members: Vec<usize>,
            centroid: Vec<f64>,
        }
        let mut nodes: Vec<Option<Node>> = profiles
            .iter()
            .enumerate()
            .map(|(i, prof)| {
                Some(Node {
                    members: vec![i],
                    centroid: prof.clone(),
                })
            })
            .collect();
        let mut active = nodes.len();
        let target = config.num_clusters.map(|k| k.max(1));
        loop {
            if active <= 1 {
                break;
            }
            if let Some(k) = target {
                if active <= k {
                    break;
                }
            }
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..nodes.len() {
                let Some(a) = &nodes[i] else { continue };
                for (j, node) in nodes.iter().enumerate().skip(i + 1) {
                    let Some(b) = node else { continue };
                    let d = euclidean(&a.centroid, &b.centroid);
                    let better = match best {
                        None => true,
                        Some((bi, bj, bd)) => match d.total_cmp(&bd) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => (i, j) < (bi, bj),
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((i, j, d)) = best else { break };
            if target.is_none() && d > stop_distance {
                break;
            }
            let b = nodes[j].take().unwrap();
            let a = nodes[i].as_mut().unwrap();
            let na = a.members.len() as f64;
            let nb = b.members.len() as f64;
            for (ca, cb) in a.centroid.iter_mut().zip(&b.centroid) {
                *ca = (*ca * na + cb * nb) / (na + nb);
            }
            a.members.extend(b.members);
            active -= 1;
        }
        let mut clusters: Vec<Cluster> = nodes
            .into_iter()
            .flatten()
            .map(|node| {
                let mut members = node.members;
                members.sort_unstable();
                let representative = *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        euclidean(&profiles[a], &node.centroid)
                            .total_cmp(&euclidean(&profiles[b], &node.centroid))
                    })
                    .unwrap();
                Cluster {
                    members: members.iter().map(|&m| ProcessId::from_index(m)).collect(),
                    representative: ProcessId::from_index(representative),
                    centroid: node.centroid,
                }
            })
            .collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
        ProcessClustering { clusters }
    }

    #[test]
    fn identical_processes_form_one_cluster() {
        let m = trace_with_loads(&vec![vec![100, 100, 100]; 6]);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].members.len(), 6);
        assert!(c.minority_clusters().is_empty());
    }

    #[test]
    fn two_behaviour_groups_separate() {
        let mut groups = vec![vec![100u64, 100, 100]; 5];
        groups.extend(vec![vec![300u64, 320, 310]; 3]);
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert_eq!(c.len(), 2, "{c:?}");
        assert_eq!(c.clusters[0].members.len(), 5); // largest first
        assert_eq!(c.clusters[1].members.len(), 3);
        let slow: Vec<u32> = c.clusters[1].members.iter().map(|p| p.0).collect();
        assert_eq!(slow, vec![5, 6, 7]);
    }

    #[test]
    fn fixed_cluster_count_override() {
        let mut groups = vec![vec![100u64; 4]; 4];
        groups.push(vec![600u64; 4]);
        groups.push(vec![900u64; 4]);
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(
            &m,
            ClusterConfig {
                num_clusters: Some(2),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 2);
        // 600 and 900 merge together before joining the 100s.
        assert_eq!(c.clusters[1].members.len(), 2);
    }

    #[test]
    fn representative_is_a_member_near_centroid() {
        let groups = vec![
            vec![100u64, 100],
            vec![110, 110],
            vec![90, 90],
            vec![500, 500],
        ];
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        let big = &c.clusters[0];
        assert!(big.members.contains(&big.representative));
        // Centroid of {100,110,90} is 100 → representative is process 0.
        assert_eq!(big.representative, ProcessId(0));
    }

    #[test]
    fn cluster_of_lookup() {
        let groups = vec![vec![100u64; 3]; 3];
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert!(c.cluster_of(ProcessId(2)).is_some());
        assert!(c.cluster_of(ProcessId(9)).is_none());
    }

    #[test]
    fn empty_matrix_clusters_to_nothing() {
        let m = trace_with_loads(&[]);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert!(c.is_empty());
    }

    #[test]
    fn ragged_rows_are_padded() {
        let groups = vec![vec![100u64, 100, 100], vec![100, 100]];
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        // The missing third segment (padded 0) makes process 1 distinct
        // at the default threshold of 0.25·RMS.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn all_idle_run_with_zero_rms_forms_one_cluster() {
        // Every SOS value is zero → the global RMS is zero. The stop
        // distance must collapse to exactly 0 so the identical all-zero
        // profiles still merge into a single cluster instead of staying
        // one-cluster-per-process (regression: the threshold used to be
        // scaled by `rms.max(EPSILON)`, leaving the intent implicit).
        let m = trace_with_loads(&vec![vec![0u64, 0, 0]; 5]);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c.clusters[0].members.len(), 5);
        assert!(c.clusters[0].centroid.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_process_is_its_own_cluster() {
        let m = trace_with_loads(&[vec![100u64, 200, 300]]);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0)]);
        assert_eq!(c.clusters[0].representative, ProcessId(0));
    }

    #[test]
    fn equidistant_merge_breaks_tie_by_lowest_member_rank() {
        // Profiles at 0, 100, 200: the pairs (0,1) and (1,2) are both
        // 100 apart. Forcing two clusters must deterministically merge
        // the pair with the lowest member rank, i.e. {0,1} | {2}.
        let m = trace_with_loads(&[vec![0u64; 2], vec![100u64; 2], vec![200u64; 2]]);
        let c = ProcessClustering::compute(
            &m,
            ClusterConfig {
                num_clusters: Some(2),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(c.clusters[1].members, vec![ProcessId(2)]);
    }

    #[test]
    fn equidistant_disjoint_pairs_merge_lowest_first() {
        // Two far-apart pairs with identical intra-pair distance; with
        // room for exactly one merge, the lower-ranked pair merges.
        let groups = vec![
            vec![0u64; 2],
            vec![100; 2],
            vec![10_000; 2],
            vec![10_100; 2],
        ];
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(
            &m,
            ClusterConfig {
                num_clusters: Some(3),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    fn merged_node_ties_an_earlier_nearest_neighbour() {
        // (1,2) merge first (distance 4) into centroid (2,5), which is
        // exactly 5 from rank 0 — tying rank 0's nearest, rank 3. The
        // lower pair (0,1) must win, as if every pair were re-evaluated.
        let groups = vec![vec![2u64, 0], vec![4, 5], vec![0, 5], vec![7, 0]];
        let m = trace_with_loads(&groups);
        let config = ClusterConfig {
            num_clusters: Some(2),
            ..ClusterConfig::default()
        };
        let c = ProcessClustering::compute(&m, config);
        assert_eq!(c, reference_compute(&m, config));
        let big: Vec<u32> = c.clusters[0].members.iter().map(|p| p.0).collect();
        assert_eq!(big, vec![0, 1, 2]);
    }

    #[test]
    fn cosmo_like_hotspot_isolated() {
        // 14 balanced ranks + 2 hot ranks with growing load.
        let mut groups = vec![vec![100u64; 8]; 14];
        groups.push((0..8).map(|i| 100 + 40 * i).collect());
        groups.push((0..8).map(|i| 100 + 50 * i).collect());
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(&m, ClusterConfig::default());
        assert!(c.len() >= 2);
        let minority: Vec<u32> = c
            .minority_clusters()
            .iter()
            .flat_map(|cl| cl.members.iter().map(|p| p.0))
            .collect();
        assert!(
            minority.contains(&14) && minority.contains(&15),
            "{minority:?}"
        );
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Per-process load rows: 1–8 processes × 1–5 iterations, loads
        /// drawn from a wide range so exact cross-pair distance ties are
        /// vanishingly improbable (ties are covered by the deterministic
        /// tests above).
        fn arb_groups() -> impl Strategy<Value = Vec<Vec<u64>>> {
            vec(vec(1u64..1_000_000, 1..6), 1..9)
        }

        /// A deterministic Fisher–Yates permutation of `0..n` from `seed`:
        /// `perm[new_rank] = original index`.
        fn permutation(n: usize, seed: u64) -> Vec<usize> {
            let mut perm: Vec<usize> = (0..n).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                // xorshift64* — plenty for shuffling test inputs.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            perm
        }

        /// A clustering as a multiset of member sets, with each member
        /// mapped back through `index_of` (identity for unpermuted runs).
        fn member_sets(
            c: &ProcessClustering,
            index_of: impl Fn(usize) -> usize,
        ) -> BTreeSet<BTreeSet<usize>> {
            c.clusters
                .iter()
                .map(|cl| {
                    cl.members
                        .iter()
                        .map(|p| index_of(p.index()))
                        .collect::<BTreeSet<usize>>()
                })
                .collect()
        }

        /// Loads a tie-heavy profile is drawn from: few distinct values,
        /// so equidistant pairs are common.
        const TIE_LOADS: [u64; 5] = [0, 1, 2, 4, 100];
        const THRESHOLDS: [f64; 4] = [0.0, 0.1, 0.25, 1.0];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn cached_agglomeration_equals_the_reference(
                picks in vec(vec(0usize..TIE_LOADS.len(), 1..4), 1..41),
                k in 0usize..11,
                threshold in 0usize..THRESHOLDS.len(),
                cap in 1usize..10,
            ) {
                // k == 10 doubles as the None arm.
                let groups: Vec<Vec<u64>> = picks
                    .iter()
                    .map(|row| row.iter().map(|&i| TIE_LOADS[i]).collect())
                    .collect();
                let m = trace_with_loads(&groups);
                let config = ClusterConfig {
                    distance_threshold: THRESHOLDS[threshold],
                    num_clusters: (k < 10).then_some(k),
                };
                let reference = reference_compute(&m, config);
                prop_assert_eq!(ProcessClustering::compute(&m, config), reference.clone());
                // Resuming past the threshold stop equals re-clustering
                // to the cap from scratch.
                let capped = if reference.len() > cap {
                    reference_compute(&m, ClusterConfig { num_clusters: Some(cap), ..config })
                } else {
                    reference
                };
                prop_assert_eq!(ProcessClustering::compute_capped(&m, config, cap), capped);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn deterministic_across_repeated_runs(groups in arb_groups()) {
                let m = trace_with_loads(&groups);
                let a = ProcessClustering::compute(&m, ClusterConfig::default());
                let b = ProcessClustering::compute(&m, ClusterConfig::default());
                prop_assert_eq!(a, b);
            }

            #[test]
            fn num_clusters_upper_bound_honoured(
                groups in arb_groups(),
                k in 1usize..9,
            ) {
                let m = trace_with_loads(&groups);
                let c = ProcessClustering::compute(
                    &m,
                    ClusterConfig { num_clusters: Some(k), ..ClusterConfig::default() },
                );
                prop_assert!(c.len() <= k, "{} clusters > bound {}", c.len(), k);
                prop_assert!(!c.is_empty());
                // Every process appears in exactly one cluster.
                let total: usize = c.clusters.iter().map(|cl| cl.members.len()).sum();
                prop_assert_eq!(total, groups.len());
            }

            #[test]
            fn rank_permutation_invariance(
                groups in arb_groups(),
                seed in 0u64..u64::MAX,
            ) {
                let perm = permutation(groups.len(), seed);
                let permuted: Vec<Vec<u64>> =
                    perm.iter().map(|&orig| groups[orig].clone()).collect();
                let c_orig = ProcessClustering::compute(
                    &trace_with_loads(&groups), ClusterConfig::default());
                let c_perm = ProcessClustering::compute(
                    &trace_with_loads(&permuted), ClusterConfig::default());
                let orig_sets = member_sets(&c_orig, |i| i);
                let perm_sets = member_sets(&c_perm, |i| perm[i]);
                prop_assert_eq!(orig_sets, perm_sets);
            }

            #[test]
            fn degenerate_inputs_never_panic(
                n in 1usize..7,
                width in 1usize..5,
                load_pick in 0usize..3,
                k in 0usize..10,
            ) {
                // All-equal vectors (including all-zero → zero global RMS
                // in the relative threshold) across any process count and
                // any num_clusters override, including the degenerate
                // Some(0); k == 9 doubles as the None arm.
                let load = [0u64, 1, 77][load_pick];
                let num_clusters = (k < 9).then_some(k);
                let m = trace_with_loads(&vec![vec![load; width]; n]);
                let c = ProcessClustering::compute(
                    &m,
                    ClusterConfig { num_clusters, ..ClusterConfig::default() },
                );
                // Identical profiles always collapse to one cluster
                // unless a larger fixed count forbids merging that far.
                let expected = num_clusters.map_or(1, |k| k.clamp(1, n));
                prop_assert_eq!(c.len(), expected);
            }
        }
    }
}
