//! Streaming post-processing: re-extract communities after an edit batch
//! without re-running the weight pass.
//!
//! Full post-processing ([`postprocess`](crate::postprocess::postprocess))
//! rebuilds every vertex histogram and merges a pair of histograms per
//! edge on each call — `O(n·T + m·T)` — even when a flush touched a
//! handful of label slots. This module instead drives an
//! [`EdgeCounters`] store, which
//! keeps the exact integer numerator `common_uv = Σ_l f_u(l)·f_v(l)` of
//! every live edge as state:
//!
//! * **eager** (the serve path): the repair engines emit [`SlotDelta`]s
//!   as they rewrite label slots; [`apply_slot_deltas`](IncrementalPostprocess::apply_slot_deltas)
//!   folds the compacted stream into the counters at `O(deg)` per net
//!   slot change, and [`delete_edges`](IncrementalPostprocess::delete_edges)
//!   retires counters of deleted edges. Publish-time weight cost drops to
//!   one `O(1)` counter read per edge plus one merge per *newly inserted*
//!   edge — the cost tracks the change, not the graph;
//! * **deferred** (drop-in for the old dirty-region API):
//!   [`set_sequence`](IncrementalPostprocess::set_sequence) queues whole
//!   replacement sequences, and [`refresh`](IncrementalPostprocess::refresh)
//!   pushes their sparse histogram diffs through the counters against the
//!   final graph before reading weights.
//!
//! The τ2 / τ1 / extraction stages still run over the full weight list —
//! they are `O(m log m)` and cheap next to the old `O(m·T)` merge pass —
//! so the result is **bit-identical** to a full recompute: counters are
//! exact integers, and the derived weight divides the same integer by the
//! same `m²` the merge would. The tests below and
//! `tests/counter_equivalence.rs` pin that equality under random churn,
//! for both the single-writer and the sharded repair engines.

use rslpa_graph::{AdjacencyGraph, FxHashMap, Label, SlotDelta, VertexId};

use crate::edge_counters::EdgeCounters;
use crate::postprocess::{extract_communities, select_tau1, select_tau2, PostprocessResult};
use crate::state::LabelState;

/// Incremental replacement for [`postprocess`](crate::postprocess::postprocess),
/// built on streaming per-edge common-label counters.
///
/// ```
/// use rslpa_core::{postprocess, IncrementalPostprocess, RslpaConfig, RslpaDetector};
/// use rslpa_graph::{AdjacencyGraph, EditBatch, FxHashSet};
///
/// let graph = AdjacencyGraph::from_edges(6, [
///     (0, 1), (1, 2), (0, 2),
///     (3, 4), (4, 5), (3, 5),
///     (2, 3),
/// ]);
/// let mut detector = RslpaDetector::new(graph, RslpaConfig::quick(30, 7));
/// let mut pp = IncrementalPostprocess::new(detector.state(), None);
///
/// // The graph changes; the repair streams its slot changes straight
/// // into the counter store — no histogram ever re-merges.
/// let batch = EditBatch::from_lists([(1, 4)], []);
/// let (mut dirty, mut deltas) = (FxHashSet::default(), Vec::new());
/// detector.apply_batch_streaming(&batch, &mut dirty, &mut deltas).unwrap();
/// pp.delete_edges(batch.deletions());
/// pp.apply_slot_deltas(detector.graph(), &deltas);
///
/// let incremental = pp.refresh(detector.graph());
/// let full = postprocess(detector.graph(), detector.state(), None);
/// assert_eq!(incremental.tau1.to_bits(), full.tau1.to_bits());
/// assert_eq!(incremental.cover, full.cover);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalPostprocess {
    /// τ1 grid (must match the full pipeline's configuration).
    grid: Option<f64>,
    /// Histograms + exact per-edge common-label numerators.
    counters: EdgeCounters,
    /// Deferred whole-sequence replacements, applied at the next refresh.
    pending: FxHashMap<VertexId, Vec<Label>>,
}

impl IncrementalPostprocess {
    /// Seed the histograms from a propagated state. Counters start cold;
    /// the first [`refresh`](Self::refresh) merges every edge once
    /// (equivalent to one full weight pass), after which a merge only
    /// ever happens for a newly inserted edge.
    pub fn new(state: &LabelState, grid: Option<f64>) -> Self {
        Self {
            grid,
            counters: EdgeCounters::new(state),
            pending: FxHashMap::default(),
        }
    }

    /// Grow the vertex space to `n`; new vertices start with their
    /// own-label histogram (the sequence a fresh isolated vertex has).
    pub fn ensure_vertices(&mut self, n: usize) {
        self.counters.ensure_vertices(n);
    }

    /// Queue a replacement for `v`'s label sequence (the deferred path);
    /// applied against the final graph at the next refresh.
    pub fn set_sequence(&mut self, v: VertexId, labels: &[Label]) {
        debug_assert_eq!(labels.len(), self.counters.draws(), "sequence length");
        self.counters.ensure_vertices(v as usize + 1);
        self.pending.insert(v, labels.to_vec());
    }

    /// Fold a flush's slot-change stream into the counters (the eager
    /// path). `graph` must be the post-flush topology; deltas touching
    /// edges inserted this flush are skipped (their counters do not exist
    /// yet) and covered exactly by the lazy merge at the next refresh.
    /// The stream is [compacted](rslpa_graph::compact_slot_deltas) and
    /// aggregated per vertex, so each dirty vertex costs one neighbor
    /// sweep per flush however many of its slots moved. Returns the
    /// number of net deltas applied.
    pub fn apply_slot_deltas(&mut self, graph: &AdjacencyGraph, deltas: &[SlotDelta]) -> usize {
        self.counters.apply_slot_deltas(graph, deltas)
    }

    /// Retire the counters of deleted edges (the eager path). Required
    /// before further slot deltas: a counter surviving a delete would
    /// miss the updates of deltas applied while its edge was absent and
    /// silently go stale if the edge is later re-inserted.
    pub fn delete_edges(&mut self, deletions: &[(VertexId, VertexId)]) {
        for &(u, v) in deletions {
            self.counters.delete_edge(u, v);
        }
    }

    /// Vertices with a queued deferred replacement (diagnostics).
    pub fn pending_dirty(&self) -> usize {
        self.pending.len()
    }

    /// The configured τ1 grid (engines that assemble their own weight
    /// lists — e.g. the partitioned mailbox path — thread it through
    /// [`result_from_weights`]).
    pub fn grid(&self) -> Option<f64> {
        self.grid
    }

    /// Read access to the underlying counter store (diagnostics, tests).
    pub fn counters(&self) -> &EdgeCounters {
        &self.counters
    }

    /// Memory held by the counter store (histogram rows + per-edge
    /// numerators dominate; the deferred-update map is transient and
    /// excluded).
    pub fn mem_footprint(&self) -> rslpa_graph::MemFootprint {
        use rslpa_graph::MemAccounted;
        self.counters.mem_footprint()
    }

    /// Apply deferred updates, read the weight list off the counters, and
    /// run threshold selection + extraction. Bit-identical to
    /// `postprocess(graph, state, grid)` on the state the caches mirror.
    pub fn refresh(&mut self, graph: &AdjacencyGraph) -> PostprocessResult {
        let n = graph.num_vertices();
        self.counters.ensure_vertices(n);
        if !self.pending.is_empty() {
            // Deterministic application order (the result is exact either
            // way; sorting keeps traces reproducible).
            let mut queued: Vec<(VertexId, Vec<Label>)> = self.pending.drain().collect();
            queued.sort_unstable_by_key(|(v, _)| *v);
            for (v, labels) in queued {
                self.counters.set_sequence(graph, v, &labels);
            }
        }
        let wlist = self.counters.refresh_weights(graph);
        let tau2 = select_tau2(n, &wlist);
        let (tau1, entropy) = select_tau1(n, &wlist, tau2, self.grid);
        let cover = extract_communities(n, &wlist, tau1, tau2);
        PostprocessResult {
            cover,
            tau1,
            tau2,
            entropy,
            weights: wlist,
        }
    }
}

/// Run the threshold-selection + extraction tail of post-processing over
/// an already-assembled weight list — the publish path of engines whose
/// weights come from partitioned counter stores
/// ([`BoundaryCache::assemble`](crate::edge_counters::BoundaryCache::assemble))
/// rather than a central [`EdgeCounters`]. Bit-identical to
/// [`refresh`](IncrementalPostprocess::refresh) on the same weights: the
/// τ2 / τ1 / extraction stages are shared verbatim.
pub fn result_from_weights(
    n: usize,
    wlist: Vec<(VertexId, VertexId, f64)>,
    grid: Option<f64>,
) -> PostprocessResult {
    let tau2 = select_tau2(n, &wlist);
    let (tau1, entropy) = select_tau1(n, &wlist, tau2, grid);
    let cover = extract_communities(n, &wlist, tau1, tau2);
    PostprocessResult {
        cover,
        tau1,
        tau2,
        entropy,
        weights: wlist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RslpaConfig;
    use crate::detector::RslpaDetector;
    use crate::postprocess::postprocess;
    use rslpa_graph::edits::canonical;
    use rslpa_graph::rng::DetRng;
    use rslpa_graph::{EditBatch, FxHashSet};

    fn assert_results_equal(a: &PostprocessResult, b: &PostprocessResult) {
        assert_eq!(a.tau1.to_bits(), b.tau1.to_bits(), "tau1 drifted");
        assert_eq!(a.tau2.to_bits(), b.tau2.to_bits(), "tau2 drifted");
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits(), "entropy drifted");
        assert_eq!(a.cover, b.cover, "cover drifted");
        assert_eq!(a.weights.len(), b.weights.len());
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert_eq!((x.0, x.1), (y.0, y.1), "edge order drifted");
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight drifted at {x:?}");
        }
    }

    fn seed_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(12);
        for base in [0u32, 4, 8] {
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    g.insert_edge(i, j);
                }
            }
        }
        g.insert_edge(3, 4);
        g.insert_edge(7, 8);
        g
    }

    /// A random valid batch against `g`: flip `k` random vertex pairs.
    fn random_batch(g: &AdjacencyGraph, rng: &mut DetRng, k: usize) -> EditBatch {
        let n = g.num_vertices() as u64;
        let mut ins = Vec::new();
        let mut del = Vec::new();
        let mut seen = FxHashSet::default();
        while ins.len() + del.len() < k {
            let u = rng.bounded(n) as VertexId;
            let v = rng.bounded(n) as VertexId;
            if u == v || !seen.insert(canonical(u, v)) {
                continue;
            }
            if g.has_edge(u, v) {
                del.push((u, v));
            } else {
                ins.push((u, v));
            }
        }
        EditBatch::from_lists(ins, del)
    }

    #[test]
    fn first_refresh_matches_full_postprocess() {
        let g = seed_graph();
        let det = RslpaDetector::new(g.clone(), RslpaConfig::quick(30, 7));
        let mut pp = IncrementalPostprocess::new(det.state(), None);
        let full = postprocess(&g, det.state(), None);
        assert_results_equal(&pp.refresh(&g), &full);
        // A second refresh with nothing dirty is identical again.
        assert_results_equal(&pp.refresh(&g), &full);
    }

    #[test]
    fn deferred_path_stays_bit_identical_under_random_churn() {
        for seed in [3u64, 11, 29] {
            let g = seed_graph();
            let mut det = RslpaDetector::new(g, RslpaConfig::quick(25, seed));
            let mut pp = IncrementalPostprocess::new(det.state(), None);
            let mut rng = DetRng::new(seed ^ 0x5eed);
            for round in 0..12 {
                let batch = random_batch(det.graph(), &mut rng, 3 + round % 5);
                let mut dirty = FxHashSet::default();
                det.apply_batch_tracked(&batch, &mut dirty).unwrap();
                for v in dirty {
                    pp.set_sequence(v, det.state().label_sequence(v));
                }
                let incremental = pp.refresh(det.graph());
                let full = postprocess(det.graph(), det.state(), None);
                assert_results_equal(&incremental, &full);
            }
        }
    }

    #[test]
    fn eager_path_stays_bit_identical_under_random_churn() {
        // The serve wiring: slot deltas + delete notifications, no
        // sequence syncing at all — and multiple flushes per refresh.
        for seed in [5u64, 13, 31] {
            let g = seed_graph();
            let mut det = RslpaDetector::new(g, RslpaConfig::quick(25, seed));
            let mut pp = IncrementalPostprocess::new(det.state(), None);
            let mut rng = DetRng::new(seed ^ 0xeade);
            for round in 0..12 {
                for _ in 0..1 + round % 3 {
                    let batch = random_batch(det.graph(), &mut rng, 2 + round % 6);
                    let mut dirty = FxHashSet::default();
                    let mut deltas = Vec::new();
                    det.apply_batch_streaming(&batch, &mut dirty, &mut deltas)
                        .unwrap();
                    pp.delete_edges(batch.deletions());
                    pp.apply_slot_deltas(det.graph(), &deltas);
                }
                assert_results_equal(
                    &pp.refresh(det.graph()),
                    &postprocess(det.graph(), det.state(), None),
                );
            }
        }
    }

    #[test]
    fn survives_edge_delete_then_reinsert() {
        // The regression the eager delete notification exists for: an
        // edge whose endpoint histograms change *while the edge is
        // absent* must be re-merged when it re-enters the graph.
        let g = seed_graph();
        let mut det = RslpaDetector::new(g, RslpaConfig::quick(20, 9));
        let mut pp = IncrementalPostprocess::new(det.state(), None);
        pp.refresh(det.graph());
        let steps = [
            EditBatch::from_lists([], [(3, 4)]),
            EditBatch::from_lists([(0, 8)], [(1, 2)]), // churn histograms
            EditBatch::from_lists([(3, 4)], [(0, 8)]), // re-insert
        ];
        for batch in &steps {
            let mut dirty = FxHashSet::default();
            let mut deltas = Vec::new();
            det.apply_batch_streaming(batch, &mut dirty, &mut deltas)
                .unwrap();
            pp.delete_edges(batch.deletions());
            pp.apply_slot_deltas(det.graph(), &deltas);
            assert_results_equal(
                &pp.refresh(det.graph()),
                &postprocess(det.graph(), det.state(), None),
            );
        }
    }

    #[test]
    fn vertex_growth_seeds_own_label_histograms() {
        let g = seed_graph();
        let mut det = RslpaDetector::new(g, RslpaConfig::quick(20, 5));
        let mut pp = IncrementalPostprocess::new(det.state(), None);
        pp.refresh(det.graph());
        det.ensure_vertices(14);
        pp.ensure_vertices(14);
        let batch = EditBatch::from_lists([(12, 0), (12, 1), (13, 12)], []);
        let mut dirty = FxHashSet::default();
        let mut deltas = Vec::new();
        det.apply_batch_streaming(&batch, &mut dirty, &mut deltas)
            .unwrap();
        pp.delete_edges(batch.deletions());
        pp.apply_slot_deltas(det.graph(), &deltas);
        assert_results_equal(
            &pp.refresh(det.graph()),
            &postprocess(det.graph(), det.state(), None),
        );
    }

    #[test]
    fn grid_configuration_is_respected() {
        let g = seed_graph();
        let det = RslpaDetector::new(g.clone(), RslpaConfig::quick(30, 13));
        let mut pp = IncrementalPostprocess::new(det.state(), Some(0.001));
        assert_results_equal(&pp.refresh(&g), &postprocess(&g, det.state(), Some(0.001)));
    }

    #[test]
    fn refresh_after_churn_merges_only_new_edges() {
        // The point of the tentpole: steady-state refreshes never re-merge
        // surviving edges, no matter how dirty their endpoints are.
        let g = seed_graph();
        let edges_before = g.num_edges();
        let mut det = RslpaDetector::new(g, RslpaConfig::quick(25, 3));
        let mut pp = IncrementalPostprocess::new(det.state(), None);
        pp.refresh(det.graph());
        assert_eq!(pp.counters().num_counters(), edges_before);
        let batch = EditBatch::from_lists([(0, 9), (2, 6)], [(3, 4)]);
        let mut dirty = FxHashSet::default();
        let mut deltas = Vec::new();
        det.apply_batch_streaming(&batch, &mut dirty, &mut deltas)
            .unwrap();
        pp.delete_edges(batch.deletions());
        pp.apply_slot_deltas(det.graph(), &deltas);
        // Before refresh: only the deleted edge's counter is gone; the
        // two inserted edges have no counter yet.
        assert_eq!(pp.counters().num_counters(), edges_before - 1);
        pp.refresh(det.graph());
        assert_eq!(pp.counters().num_counters(), det.graph().num_edges());
    }
}
