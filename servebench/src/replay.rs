//! The correctness gate and the uncontended per-layer timings.
//!
//! The edit stream is replayed, outside the timed phase, through a
//! single-writer `RslpaDetector` and an `IncrementalPostprocess` under the
//! service's own configuration, cut at the same flush boundaries and
//! published at the same cadence. The final
//! roster and weight fingerprint must equal the service's, whatever its
//! shard count. The replay's own timed calls give each layer's self time
//! without the reader and writer threads competing for the cores.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rslpa_core::{DetectionResult, IncrementalPostprocess, RslpaConfig, RslpaDetector};
use rslpa_graph::{AdjacencyGraph, Cover, DynamicGraph, EditBatch, FxHashSet, VertexId};
use rslpa_serve::{CommunitySnapshot, EditOp, SnapshotStore};

use crate::hist::Windowed;

/// Fold one flush's ops into the net batch they amount to against the
/// graph (`has_edge`), exactly as the service's net resolution does:
/// per edge, the last op decides; an op that would not change the edge's
/// presence at that point (duplicate insert, absent delete, self-loop)
/// is rejected. Returns the batch and the number of rejected ops.
pub fn net_batch(
    has_edge: impl Fn(VertexId, VertexId) -> bool,
    ops: &[EditOp],
) -> (EditBatch, u64) {
    // Edge -> (present before the flush, present after the ops so far).
    let mut desired: BTreeMap<(VertexId, VertexId), (bool, bool)> = BTreeMap::new();
    let mut rejected = 0;
    for &op in ops {
        let (u, v) = op.endpoints();
        if u == v {
            rejected += 1;
            continue;
        }
        let key = (u.min(v), u.max(v));
        let (_, present) = desired.entry(key).or_insert_with(|| {
            let was = has_edge(key.0, key.1);
            (was, was)
        });
        let want = matches!(op, EditOp::Insert(..));
        if *present == want {
            rejected += 1;
        } else {
            *present = want;
        }
    }
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for (&e, &(was, now)) in &desired {
        match (was, now) {
            (false, true) => ins.push(e),
            (true, false) => del.push(e),
            _ => {}
        }
    }
    (EditBatch::from_lists(ins, del), rejected)
}

/// Edit-to-visibility latencies. Flushes are size-only, so edit `i` is in
/// flush `⌊i / flush⌋` and becomes visible with the first epoch the
/// reader saw whose `batches_applied` exceeds that index. `sent_ns[i]` is
/// when edit `i` was submitted; `seen` lists `(ns, batches_applied)` per newly
/// seen epoch in observation order. Edit `i` is recorded in window
/// `window_of(i)` of `windows`. Fails with the first edit no seen epoch
/// covers.
pub fn visibility(
    flush: usize,
    sent_ns: &[u64],
    seen: &[(u64, usize)],
    windows: usize,
    window_of: impl Fn(usize) -> usize,
) -> Result<Windowed, usize> {
    let mut hist = Windowed::new(windows);
    let mut j = 0;
    for (i, &due) in sent_ns.iter().enumerate() {
        let k = i / flush;
        while j < seen.len() && seen[j].1 <= k {
            j += 1;
        }
        let Some(&(at, _)) = seen.get(j) else {
            return Err(i);
        };
        hist.windows[window_of(i)].record(at.saturating_sub(due));
    }
    Ok(hist)
}

/// What the replay found and how long each layer took.
pub struct Replay {
    pub cover: Cover,
    pub fingerprint: u64,
    pub batches: usize,
    /// First correctness violation, by name.
    pub violation: Option<String>,
    pub propagate: Duration,
    pub genesis: Duration,
    /// `DynamicGraph::apply` on the shadow graph.
    pub graph_apply: Duration,
    /// `apply_batch_streaming` minus its own adjacency apply.
    pub repair: Duration,
    /// `delete_edges` + `apply_slot_deltas`.
    pub upkeep: Duration,
    pub net_deltas: u64,
    pub final_graph: AdjacencyGraph,
}

/// Replay `ops` (a whole number of flushes) from `graph`, publishing
/// after every `publish_every`-th flush as the service does.
pub fn replay(
    graph: &AdjacencyGraph,
    config: RslpaConfig,
    ops: &[EditOp],
    flush: usize,
    publish_every: usize,
) -> Replay {
    let started = Instant::now();
    let mut detector = RslpaDetector::new(graph.clone(), config);
    let propagate = started.elapsed();

    let started = Instant::now();
    let mut pp = IncrementalPostprocess::new(detector.state(), config.tau1_grid);
    let genesis = DetectionResult {
        result: pp.refresh(detector.graph()),
    };
    let store = SnapshotStore::new(
        CommunitySnapshot::build(0, detector.graph(), &genesis, 0),
        64,
    );
    let genesis = started.elapsed();

    let mut shadow = DynamicGraph::new(graph.clone());
    let (mut graph_apply, mut repair, mut upkeep) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut net_deltas = 0u64;
    let mut violation = None;
    let mut dirty = FxHashSet::default();
    let mut deltas = Vec::new();
    let n = graph.num_vertices();
    for (k, chunk) in ops.chunks(flush).enumerate() {
        if chunk.len() != flush {
            violation = Some(format!("partial flush {k} of {} ops", chunk.len()));
            break;
        }
        let g = shadow.graph();
        let (batch, rejected) = net_batch(|u, v| g.has_edge(u, v), chunk);
        if rejected != 0 || batch.is_empty() {
            // An empty net flush is skipped by the service without
            // counting a batch, which would shift every later edit's epoch.
            violation = Some(format!(
                "flush {k}: {rejected} rejected ops, net batch of {}",
                batch.len()
            ));
            break;
        }
        if batch.insertions().iter().any(|&(_, v)| v as usize >= n) {
            violation = Some(format!("flush {k} grows the vertex space"));
            break;
        }
        let t = Instant::now();
        let applied = shadow.apply(&batch);
        let apply_time = t.elapsed();
        if let Err(e) = applied {
            violation = Some(format!("flush {k} does not apply: {e:?}"));
            break;
        }
        graph_apply += apply_time;

        dirty.clear();
        deltas.clear();
        let t = Instant::now();
        detector
            .apply_batch_streaming(&batch, &mut dirty, &mut deltas)
            .expect("batch applied to the shadow applies to the detector");
        repair += t.elapsed().saturating_sub(apply_time);

        let t = Instant::now();
        pp.delete_edges(batch.deletions());
        net_deltas += pp.apply_slot_deltas(detector.graph(), &deltas) as u64;
        upkeep += t.elapsed();

        if (k + 1) % publish_every == 0 {
            let detection = DetectionResult {
                result: pp.refresh(detector.graph()),
            };
            let snapshot = CommunitySnapshot::build(
                store.latest_epoch() + 1,
                detector.graph(),
                &detection,
                detector.batches_applied(),
            );
            store.publish(snapshot);
        }
    }
    let last = store.latest();
    Replay {
        cover: last.cover.clone(),
        fingerprint: last.weights_fingerprint,
        batches: last.batches_applied,
        violation,
        propagate,
        genesis,
        graph_apply,
        repair,
        upkeep,
        net_deltas,
        final_graph: shadow.graph().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    fn resolve(ops: &[EditOp]) -> (EditBatch, u64) {
        let g = path();
        net_batch(|u, v| g.has_edge(u, v), ops)
    }

    #[test]
    fn cancelling_pairs_net_out_without_rejection() {
        let (b, rejected) = resolve(&[
            EditOp::Insert(0, 2),
            EditOp::Delete(2, 0),
            EditOp::Delete(1, 2),
            EditOp::Insert(1, 2),
            EditOp::Insert(3, 0),
        ]);
        assert_eq!(b.insertions(), &[(0, 3)]);
        assert!(b.deletions().is_empty());
        assert_eq!(rejected, 0);
    }

    #[test]
    fn noops_are_rejected_and_can_empty_a_flush() {
        let (b, rejected) = resolve(&[
            EditOp::Insert(0, 1),
            EditOp::Delete(0, 3),
            EditOp::Insert(2, 2),
            EditOp::Insert(1, 0),
        ]);
        assert!(b.is_empty(), "a flush of no-ops nets to nothing");
        assert_eq!(rejected, 4);
    }

    #[test]
    fn edits_map_to_the_first_epoch_covering_their_flush() {
        // Flush size 2: edits 0,1 → flush 0; 2,3 → flush 1; 4,5 → flush 2.
        let due = [10, 20, 30, 40, 50, 60];
        // Genesis (0 batches) seen at 0; an epoch with 2 batches at 100
        // covers flushes 0 and 1; flush 2 is covered at 170.
        let seen = [(0, 0), (100, 2), (170, 3)];
        let h = visibility(2, &due, &seen, 1, |_| 0)
            .expect("every edit attributed")
            .pooled();
        assert_eq!(h.count(), 6);
        // Latencies: 90 80 70 60 120 110.
        assert_eq!(h.max(), 120);
        assert_eq!(h.sum(), 90 + 80 + 70 + 60 + 120 + 110);
    }

    #[test]
    fn an_edit_no_epoch_covers_is_reported() {
        let due = [10, 20, 30];
        let seen = [(0, 0), (100, 1)];
        // Flush size 2: edit 2 is in flush 1, which no epoch covers.
        assert_eq!(visibility(2, &due, &seen, 1, |_| 0).err(), Some(2));
    }

    #[test]
    fn skipped_epochs_still_attribute_every_edit() {
        // The reader may only ever see every other epoch.
        let due: Vec<u64> = (0..8).collect();
        let seen = [(0, 0), (50, 2), (90, 4)];
        let h = visibility(2, &due, &seen, 1, |_| 0)
            .expect("attributed")
            .pooled();
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 90 - 4);
    }

    #[test]
    fn edits_are_recorded_in_their_window() {
        // Flush size 1; edits 0..4 in window 0, 4..6 in window 1.
        let due = [0, 10, 20, 30, 40, 50];
        let seen = [
            (0, 0),
            (5, 1),
            (15, 2),
            (25, 3),
            (35, 4),
            (1045, 5),
            (1055, 6),
        ];
        let w = visibility(1, &due, &seen, 2, |i| i / 4).expect("attributed");
        assert_eq!(w.windows[0].count(), 4);
        assert_eq!(w.windows[0].max(), 5);
        assert_eq!(w.windows[1].count(), 2);
        assert_eq!(w.windows[1].max(), 1005);
    }

    #[test]
    fn replay_matches_a_detector_fed_whole_batches() {
        let g =
            AdjacencyGraph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let ops = [
            EditOp::Delete(2, 3),
            EditOp::Insert(0, 4),
            EditOp::Insert(1, 5),
            EditOp::Delete(0, 1),
        ];
        let config = rslpa_serve::ServeConfig::quick(20, 3).detector;
        let r = replay(&g, config, &ops, 2, 1);
        assert_eq!(r.violation, None);
        assert_eq!(r.batches, 2);
        let mut d = RslpaDetector::new(g, config);
        d.apply_batch(&EditBatch::from_lists([(0, 4)], [(2, 3)]))
            .unwrap();
        d.apply_batch(&EditBatch::from_lists([(1, 5)], [(0, 1)]))
            .unwrap();
        assert_eq!(r.final_graph, *d.graph());
        assert_eq!(r.cover, d.detect().result.cover);
    }
}
