//! Property: streaming [`EdgeCounters`] fed by shard-emitted
//! [`SlotDelta`]s equal a fresh `edge_weights` merge — bit for bit —
//! after an arbitrary interleaving of slot updates (driven by random
//! edge insertions/deletions through Correction Propagation), eager edge
//! deletions, and mid-stream shard row migrations, at both 1 and 4
//! shards.
//!
//! Two harnesses pin it:
//!
//! * the **central-store** harness (PR 4's acceptance property): the
//!   coordinator-relayed exchange loop feeds one central [`EdgeCounters`];
//! * the **mesh + partition** harness (PR 5's): real worker threads
//!   deliver envelopes peer-to-peer over a [`build_mesh`] and each shard
//!   folds its own deltas into its own [`CounterPartition`]; publish
//!   barriers assemble interior counters + boundary-histogram merges via
//!   [`BoundaryCache::assemble`] on a fresh cache (ship everything, merge
//!   every cut edge). Each publish also runs the **dirty-diff** collect
//!   (ship only changed boundary histograms onto a persistent
//!   [`BoundaryCache`], evicted on migration, whose cut-edge memo reuses
//!   unchanged numerators) and asserts it assembles the identical weight
//!   list.
//!
//! Both must equal the centralized repair engine plus the full merge
//! pass, under random edit/migration/barrier interleavings — any drift
//! would silently corrupt every published snapshot.

use std::sync::Arc;

use proptest::prelude::*;
use rslpa_core::postprocess::edge_weights;
use rslpa_core::shard::{build_mesh, Envelope, ShardRepairState};
use rslpa_core::{
    apply_correction, run_propagation, BoundaryCache, CounterPartition, EdgeCounters,
};
use rslpa_graph::{
    compact_slot_deltas, AdjacencyGraph, DynamicGraph, EditBatch, FxHashSet, HashPartitioner,
    Partitioner, SlotDelta, VertexId,
};

/// Vertex-id space: three 4-cliques (0..12) plus two initially isolated
/// vertices that rounds may attach (the fresh-vertex path).
const N: u32 = 14;
const T_MAX: usize = 8;

fn seed_graph() -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(N as usize);
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

/// Split arbitrary candidate pairs into a batch valid against `g`:
/// present edges become deletions, absent ones insertions.
fn batch_against(g: &AdjacencyGraph, pairs: &[(VertexId, VertexId)]) -> EditBatch {
    let mut ins = Vec::new();
    let mut del = Vec::new();
    let mut seen = FxHashSet::default();
    for &(u, v) in pairs {
        if u == v || !seen.insert((u.min(v), u.max(v))) {
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

/// One sharded flush: route deltas, Phase A everywhere, pump exchange
/// rounds to quiescence, drain the slot-delta stream in shard order.
fn sharded_flush(
    shards: &mut [ShardRepairState],
    partitioner: &dyn Partitioner,
    applied: &rslpa_graph::AppliedBatch,
) -> Vec<SlotDelta> {
    let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
    let mut outbox = Vec::new();
    for (shard, deltas) in shards.iter_mut().zip(&per_shard) {
        shard.apply_deltas(deltas, &mut outbox);
    }
    while !outbox.is_empty() {
        let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); shards.len()];
        for env in outbox.drain(..) {
            inboxes[partitioner.assign(env.to)].push(env);
        }
        for (shard, inbox) in shards.iter_mut().zip(inboxes) {
            if !inbox.is_empty() {
                shard.exchange(inbox, &mut outbox);
            }
        }
    }
    let mut deltas = Vec::new();
    for shard in shards.iter_mut() {
        deltas.extend(shard.take_slot_deltas());
    }
    deltas
}

/// Migrate every row whose owner changes under `next` (the coordinator's
/// publish-time repartition, between flushes).
fn migrate(
    shards: &mut [ShardRepairState],
    old: &Arc<dyn Partitioner>,
    next: &Arc<dyn Partitioner>,
) {
    let parts = shards.len();
    let mut in_flight: Vec<Vec<(VertexId, rslpa_core::VertexRowData)>> = vec![Vec::new(); parts];
    for shard in shards.iter_mut() {
        let leaving: Vec<VertexId> = (0..N)
            .filter(|&v| old.assign(v) == shard.shard() && next.assign(v) != shard.shard())
            .collect();
        for (v, row) in shard.extract_rows(&leaving) {
            in_flight[next.assign(v)].push((v, row));
        }
    }
    for (shard, rows) in shards.iter_mut().zip(in_flight) {
        shard.set_partitioner(Arc::clone(next));
        shard.adopt_rows(rows);
    }
}

fn assert_weights_equal(a: &[(VertexId, VertexId, f64)], b: &[(VertexId, VertexId, f64)]) {
    assert_eq!(a.len(), b.len(), "edge counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.0, x.1), (y.0, y.1), "edge order drifted");
        assert_eq!(x.2.to_bits(), y.2.to_bits(), "weight drifted at {x:?}");
    }
}

/// Run one generated script at the given shard count.
fn exercise(seed: u64, rounds: &[(Vec<(VertexId, VertexId)>, u8)], parts: usize) {
    let mut dg = DynamicGraph::new(seed_graph());
    let mut central = run_propagation(dg.graph(), T_MAX, seed);
    let mut partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
    let mut shards: Vec<ShardRepairState> = (0..parts)
        .map(|s| ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner)))
        .collect();
    let mut counters = EdgeCounters::new(&central);
    counters.refresh_weights(dg.graph());

    for (round, (pairs, control)) in rounds.iter().enumerate() {
        if control & 1 != 0 {
            // Mid-stream row migration (between flushes, deltas drained).
            let next: Arc<dyn Partitioner> =
                Arc::new(HashPartitioner::with_seed(parts, round as u64 + 1));
            migrate(&mut shards, &partitioner, &next);
            partitioner = next;
        }
        let batch = batch_against(dg.graph(), pairs);
        if batch.is_empty() {
            continue;
        }
        let applied = dg.apply(&batch).expect("batch built to validate");
        apply_correction(&mut central, dg.graph(), &applied, false);
        let deltas = sharded_flush(&mut shards, partitioner.as_ref(), &applied);

        // Feed the counter store the way the serve loop does: eager
        // deletion retirement, then the compacted slot-delta stream.
        for &(u, v) in batch.deletions() {
            counters.delete_edge(u, v);
        }
        for d in compact_slot_deltas(&deltas) {
            counters.apply_slot_delta(dg.graph(), d);
        }
        if control & 2 != 0 {
            assert_weights_equal(
                &counters.refresh_weights(dg.graph()),
                &edge_weights(dg.graph(), &central),
            );
        }
    }
    // Always compare at the end of the script.
    assert_weights_equal(
        &counters.refresh_weights(dg.graph()),
        &edge_weights(dg.graph(), &central),
    );
}

/// The dirty-diff collect the mailbox engine runs at publish: every shard
/// ships only boundary histograms changed since its last ship (plus
/// first-time boundary entrants) and the coordinator overlays them onto a
/// persistent `cache`, whose memo skips cut edges with no re-shipped
/// endpoint. The assembled weight list must be bit-identical to the
/// full-ship path's — that is the coherence contract between the
/// worker-side `shipped`/`dirty` sets, the coordinator cache and its memo.
/// A fresh `cache` makes this the full-ship path itself.
fn assemble_shipped(
    shards: &[ShardRepairState],
    partitions: &mut [CounterPartition],
    cache: &mut BoundaryCache,
    graph: &AdjacencyGraph,
    p: &Arc<dyn Partitioner>,
    dirty_diff: bool,
) -> Vec<(VertexId, VertexId, f64)> {
    let mut interior = Vec::new();
    for (rows, part) in shards.iter().zip(partitions.iter_mut()) {
        if !dirty_diff {
            interior.push(part.collect_interior(rows));
            cache.extend(part.boundary_hists(rows));
            continue;
        }
        let collect = part.collect(rows);
        let ship = collect.ship;
        assert!(
            ship.shipped <= ship.dirty,
            "shipped {} histograms but only {} were dirty-marked",
            ship.shipped,
            ship.dirty
        );
        assert!(
            ship.shipped <= ship.boundary,
            "shipped {} histograms off a {}-vertex boundary",
            ship.shipped,
            ship.boundary
        );
        interior.push(collect.interior);
        cache.extend(collect.boundary_hists);
    }
    let (wlist, report) = cache.assemble(graph, |v| p.assign(v), T_MAX + 1, &interior);
    assert!(
        report.merged <= report.cut_edges,
        "merged {} of {} cut edges",
        report.merged,
        report.cut_edges
    );
    assert!(
        cache.memo_len() as u64 <= report.cut_edges,
        "memo outgrew the cut"
    );
    wlist
}

/// The PR 5 harness: peer-to-peer delivery over a real threaded mesh,
/// shard-owned counter upkeep, publish-barrier assembly. One script run
/// at `parts` shards; migrations re-partition rows *and* counter slices;
/// every `control & 2` round is a publish barrier comparing the
/// assembled weight list against the centralized reference bit for bit.
fn exercise_mesh(seed: u64, rounds: &[(Vec<(VertexId, VertexId)>, u8)], parts: usize) {
    let mut dg = DynamicGraph::new(seed_graph());
    let mut central = run_propagation(dg.graph(), T_MAX, seed);
    let mut partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
    let mut shards: Vec<ShardRepairState> = (0..parts)
        .map(|s| ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner)))
        .collect();
    // Partition slices carved from a genesis-refreshed central store —
    // the serve bootstrap path.
    let mut genesis = EdgeCounters::new(&central);
    genesis.refresh_weights(dg.graph());
    let mut partitions: Vec<CounterPartition> = shards
        .iter()
        .map(|rows| CounterPartition::carve(&genesis, rows))
        .collect();
    let mut ports = build_mesh(parts);
    // Coordinator-side boundary cache for the dirty-diff collect,
    // persistent across publishes, evicted on migration.
    let mut cache = BoundaryCache::new();
    // The full-ship reference: a fresh cache, every boundary histogram.
    let assemble = |shards: &[ShardRepairState],
                    partitions: &mut [CounterPartition],
                    graph: &AdjacencyGraph,
                    p: &Arc<dyn Partitioner>| {
        assemble_shipped(
            shards,
            partitions,
            &mut BoundaryCache::new(),
            graph,
            p,
            false,
        )
    };

    for (round, (pairs, control)) in rounds.iter().enumerate() {
        if control & 1 != 0 {
            // Mid-stream migration: rows move, counter slices follow the
            // ownership rule (drop incident counters, recompute adopted
            // histograms from the migrated rows).
            let next: Arc<dyn Partitioner> =
                Arc::new(HashPartitioner::with_seed(parts, round as u64 + 1));
            let mut in_flight: Vec<Vec<(VertexId, rslpa_core::VertexRowData)>> =
                vec![Vec::new(); parts];
            for (shard, partition) in shards.iter_mut().zip(partitions.iter_mut()) {
                let leaving: Vec<VertexId> = (0..N)
                    .filter(|&v| {
                        partitioner.assign(v) == shard.shard() && next.assign(v) != shard.shard()
                    })
                    .collect();
                partition.drop_vertices(&leaving);
                // The coordinator invalidates its cache for migrating
                // vertices; the adopter marks them dirty and re-ships.
                for &v in &leaving {
                    cache.remove(v);
                }
                for (v, row) in shard.extract_rows(&leaving) {
                    in_flight[next.assign(v)].push((v, row));
                }
            }
            for ((shard, partition), rows) in
                shards.iter_mut().zip(partitions.iter_mut()).zip(in_flight)
            {
                shard.set_partitioner(Arc::clone(&next));
                for (v, data) in &rows {
                    partition.adopt_hist(*v, &data.labels);
                }
                shard.adopt_rows(rows);
            }
            partitioner = next;
        }
        let batch = batch_against(dg.graph(), pairs);
        if batch.is_empty() {
            continue;
        }
        let applied = dg.apply(&batch).expect("batch built to validate");
        apply_correction(&mut central, dg.graph(), &applied, false);

        // Interior deleted-edge counters retire eagerly, like the serve
        // worker does from its routed removal deltas.
        for (shard, partition) in shards.iter().zip(partitions.iter_mut()) {
            for &(u, v) in batch.deletions() {
                if shard.owns(u) && shard.owns(v) {
                    partition.retire_edge(u, v);
                }
            }
        }
        // Phase A + p2p exchange on real threads, then shard-owned
        // upkeep inside each worker.
        let per_shard = rslpa_graph::sharding::split_deltas(&applied, partitioner.as_ref());
        std::thread::scope(|s| {
            for (((shard, partition), port), deltas) in shards
                .iter_mut()
                .zip(partitions.iter_mut())
                .zip(ports.iter_mut())
                .zip(&per_shard)
            {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut report = shard.apply_deltas(deltas, &mut out);
                    port.exchange_to_quiescence(shard, out, &mut report);
                    let deltas = shard.take_slot_deltas();
                    partition.apply_own_deltas(shard, &deltas);
                });
            }
        });
        if control & 2 != 0 {
            // Publish barrier: assembled partitioned weights must equal a
            // fresh merge of the centralized state — via the full-ship
            // path and via the dirty-diff + cache path.
            let reference = edge_weights(dg.graph(), &central);
            assert_weights_equal(
                &assemble(&shards, &mut partitions, dg.graph(), &partitioner),
                &reference,
            );
            assert_weights_equal(
                &assemble_shipped(
                    &shards,
                    &mut partitions,
                    &mut cache,
                    dg.graph(),
                    &partitioner,
                    true,
                ),
                &reference,
            );
        }
    }
    let reference = edge_weights(dg.graph(), &central);
    assert_weights_equal(
        &assemble(&shards, &mut partitions, dg.graph(), &partitioner),
        &reference,
    );
    assert_weights_equal(
        &assemble_shipped(
            &shards,
            &mut partitions,
            &mut cache,
            dg.graph(),
            &partitioner,
            true,
        ),
        &reference,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_counters_equal_fresh_merge_under_interleaving(
        seed in 0u64..64,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..N, 0u32..N), 1..8), 0u8..4),
            1..8,
        ),
    ) {
        for parts in [1usize, 4] {
            exercise(seed, &rounds, parts);
        }
    }

    #[test]
    fn mesh_delivery_and_shard_owned_upkeep_equal_centralized(
        seed in 0u64..64,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..N, 0u32..N), 1..8), 0u8..4),
            1..8,
        ),
    ) {
        for parts in [1usize, 4] {
            exercise_mesh(seed, &rounds, parts);
        }
    }
}
