//! Per-shard Correction Propagation: the repair state one maintenance
//! shard owns, the boundary-exchange message protocol between shards, and
//! the peer-to-peer mailbox mesh the shards exchange over.
//!
//! The serve subsystem partitions the vertex space with a
//! [`Partitioner`]; each shard owns the
//! adjacency rows, label sequences, pick provenance, and receiver records
//! of *its* vertices. After an edit batch, every shard repairs its own
//! affected vertices (Algorithm 2 Phase A) and drains the resulting
//! cascade as far as it runs inside the shard. Corrections that cross a
//! partition boundary become [`ShardMsg`]s addressed to the owner of the
//! remote vertex, delivered over the peer-to-peer mailbox mesh
//! ([`MailboxPort`]): every worker holds a direct channel to every peer
//! and delivers its outbox itself (one hop per envelope). Rounds
//! synchronize on a shared sense-reversing barrier ([`SenseBarrier`]) and
//! terminate by a monotone sent-envelope counter: **one** barrier wait per
//! round, with the last arriver (the leader) publishing the counter
//! snapshot from inside the barrier's pre-release closure. Nobody can be
//! sending while the leader reads (all ports have arrived), and nobody can
//! read a stale snapshot (the release publishes it), so all ports agree —
//! without any coordinator traffic or second barrier — on whether
//! anything was sent and when to stop.
//!
//! The protocol is the same three-message scheme as the BSP vertex program
//! ([`crate::incremental_bsp`]): `Unrecord` detaches a stale receiver
//! record, `Fetch` registers a new pick and requests its label, `Value`
//! carries a corrected label guarded by its origin `(src, pos)` so stale
//! deliveries are dropped. Because every pick is a pure function of
//! `(seed, vertex, iteration, epoch)` and slot dependencies point strictly
//! backwards in iteration time (`pos < t`), the repaired fixed point is
//! unique — independent of shard count, message ordering, transport, and
//! how eagerly a shard drains its local cascade. The tests below pin that
//! claim against the centralized [`apply_correction`](crate::incremental)
//! bit for bit, both over the mesh and through `run_shards`, a
//! single-threaded test harness that regroups each round's outboxes by
//! owner in a loop instead of exchanging them over channels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use rslpa_graph::{
    AdjacencyGraph, FxHashMap, FxHashSet, Label, Partitioner, SlotDelta, VertexDelta, VertexId,
};
use rslpa_trace::{names, TraceWriter};

use crate::barrier::SenseBarrier;
use crate::config::DampingConfig;
use crate::propagation::draw_pick;
use crate::state::{LabelState, Record, NO_SOURCE};

/// A boundary-exchange message between shards (same protocol as the BSP
/// correction program, carried over shard channels instead of the
/// simulator's per-vertex mailboxes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardMsg {
    /// "Forget that I picked your slot `slot` for my iteration `k`."
    Unrecord {
        /// Slot at the (old) source.
        slot: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// "Register me for your slot `pos` and send me its label for my
    /// iteration `k`."
    Fetch {
        /// Requested slot at the destination.
        pos: u32,
        /// Iteration at the sender.
        k: u32,
    },
    /// A label value for the destination's slot `t`, read from the
    /// sender's slot `origin_pos` (staleness guard).
    Value {
        /// Slot at the destination this value fills.
        t: u32,
        /// Slot at the sender it was read from.
        origin_pos: u32,
        /// The label.
        label: Label,
    },
}

/// An addressed [`ShardMsg`]: the routing unit of the exchange protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Destination vertex (owner shard = `partitioner.assign(to)`).
    pub to: VertexId,
    /// Sending vertex.
    pub from: VertexId,
    /// Payload.
    pub msg: ShardMsg,
}

/// Work accounting for one shard over one flush (summable across shards
/// and exchange rounds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardFlushReport {
    /// Picks re-drawn in Phase A.
    pub repicks: usize,
    /// Category-3 keep/redraw coins flipped.
    pub coins: usize,
    /// `Value` messages applied (stale ones excluded).
    pub deliveries: usize,
    /// Applied deliveries that changed the stored label.
    pub value_changes: usize,
    /// Distinct label slots written this flush (the η analogue).
    pub eta: usize,
    /// Envelopes that crossed a shard boundary.
    pub boundary_msgs: usize,
    /// Distinct vertices whose stored labels changed this flush (the
    /// dirty region; vertex ownership is disjoint so per-shard counts
    /// sum exactly).
    pub dirty_vertices: usize,
    /// Re-sprays suppressed at over-cap vertices (damping only; always 0
    /// without a [`DampingConfig`]).
    pub damped_deferrals: usize,
}

impl ShardFlushReport {
    /// Accumulate another report into this one.
    pub fn absorb(&mut self, other: &ShardFlushReport) {
        self.repicks += other.repicks;
        self.coins += other.coins;
        self.deliveries += other.deliveries;
        self.value_changes += other.value_changes;
        self.eta += other.eta;
        self.boundary_msgs += other.boundary_msgs;
        self.dirty_vertices += other.dirty_vertices;
        self.damped_deferrals += other.damped_deferrals;
    }
}

/// A vertex's full provenance rows in transit between shards
/// (repartitioning moves whole rows; nothing else ever crosses outside
/// the message protocol).
#[derive(Clone, Debug)]
pub struct VertexRowData {
    /// `T + 1` labels.
    pub labels: Vec<Label>,
    /// `(src, pos)` per pick slot.
    pub picks: Vec<(VertexId, u32)>,
    /// Repick epoch per slot.
    pub epochs: Vec<u32>,
    /// Receiver records.
    pub records: Vec<Record>,
    /// Sorted neighbor list.
    pub neighbors: Vec<VertexId>,
    /// Whether the label sequence changed since the last dirty drain.
    pub dirty: bool,
    /// Damping: sorted slots whose receivers may be out of date and
    /// await an unmute release (empty without damping).
    pub pending: Vec<u32>,
}

/// The full provenance rows of one owned vertex.
#[derive(Clone, Debug)]
struct VertexRow {
    /// `T + 1` labels (`labels[0]` is the immutable initial label).
    labels: Vec<Label>,
    /// `(src, pos)` per pick slot, index `t - 1`.
    picks: Vec<(VertexId, u32)>,
    /// Repick epoch per slot, index `t - 1`.
    epochs: Vec<u32>,
    /// Receiver records of this vertex (who picked my slots).
    records: Vec<Record>,
    /// Sorted neighbor list (the shard-owned adjacency row).
    neighbors: Vec<VertexId>,
    /// Damping: sorted slots whose receivers may be out of date —
    /// changed while this vertex was muted, or picked by a listener the
    /// muted fetch never answered — awaiting a budgeted unmute release.
    pending: Vec<u32>,
}

impl VertexRow {
    /// A fresh, isolated vertex: every slot repeats the own label.
    fn fresh(v: VertexId, t_max: usize) -> Self {
        Self {
            labels: vec![v as Label; t_max + 1],
            picks: vec![(NO_SOURCE, 0); t_max],
            epochs: vec![0; t_max],
            records: Vec::new(),
            neighbors: Vec::new(),
            pending: Vec::new(),
        }
    }
}

/// Park slot `t` for an unmute release: its value changed while the
/// vertex was muted, or a muted fetch left a listener holding its own
/// stale value.
fn pending_park(pending: &mut Vec<u32>, t: u32) {
    if let Err(i) = pending.binary_search(&t) {
        pending.insert(i, t);
    }
}

/// Forget a parked slot (its receivers are being brought up to date by a
/// normal forward).
fn pending_clear(pending: &mut Vec<u32>, t: u32) {
    if let Ok(i) = pending.binary_search(&t) {
        pending.remove(i);
    }
}

/// Repair state owned by one maintenance shard.
pub struct ShardRepairState {
    shard: usize,
    t_max: usize,
    seed: u64,
    value_pruned: bool,
    /// Degree-capped cascade damping; `None` (default) forwards every
    /// correction immediately, like the paper's Algorithm 2.
    damping: Option<DampingConfig>,
    partitioner: Arc<dyn Partitioner>,
    rows: FxHashMap<VertexId, VertexRow>,
    /// Owned vertices whose label sequence changed since the last drain
    /// (the input to dirty-region post-processing).
    dirty: FxHashSet<VertexId>,
    /// Label-slot value changes since the last
    /// [`take_slot_deltas`](Self::take_slot_deltas), in application order
    /// — the stream a central
    /// [`EdgeCounters`](crate::edge_counters::EdgeCounters) consumes.
    slot_deltas: Vec<SlotDelta>,
    /// Slots written during the current flush (distinct-η accounting).
    touched: FxHashSet<(VertexId, u32)>,
    /// Vertices whose stored labels changed during the current flush
    /// (distinct dirty-region accounting).
    flush_dirty: FxHashSet<VertexId>,
    /// Local delivery queue: envelopes addressed to this shard that have
    /// not been applied yet.
    local: Vec<Envelope>,
    /// Owned vertices with a nonempty `pending` row (damping); an index
    /// so release staging never scans the full row map.
    pending_set: FxHashSet<VertexId>,
}

impl ShardRepairState {
    /// Carve shard `shard`'s rows out of a globally propagated state.
    pub fn from_state(
        state: &LabelState,
        graph: &AdjacencyGraph,
        shard: usize,
        partitioner: Arc<dyn Partitioner>,
    ) -> Self {
        let t_max = state.iterations();
        let mut rows = FxHashMap::default();
        for v in 0..state.num_vertices() as VertexId {
            if partitioner.assign(v) != shard {
                continue;
            }
            rows.insert(
                v,
                VertexRow {
                    labels: state.label_sequence(v).to_vec(),
                    picks: (1..=t_max as u32).map(|t| state.pick(v, t)).collect(),
                    epochs: (1..=t_max as u32).map(|t| state.epoch(v, t)).collect(),
                    records: state.records(v).to_vec(),
                    neighbors: graph.neighbors(v).to_vec(),
                    pending: Vec::new(),
                },
            );
        }
        Self {
            shard,
            t_max,
            seed: state.seed(),
            // Paper-faithful unconditional forwarding by default;
            // `set_value_pruned` selects the ablation semantics.
            value_pruned: false,
            damping: None,
            partitioner,
            rows,
            dirty: FxHashSet::default(),
            slot_deltas: Vec::new(),
            touched: FxHashSet::default(),
            flush_dirty: FxHashSet::default(),
            local: Vec::new(),
            pending_set: FxHashSet::default(),
        }
    }

    /// Select the cascade semantics (paper-faithful unconditional
    /// forwarding vs value-pruned ablation).
    pub fn set_value_pruned(&mut self, pruned: bool) {
        self.value_pruned = pruned;
    }

    /// Enable (or disable) degree-capped cascade damping. Must be set
    /// identically on every shard of an engine, before the first flush.
    pub fn set_damping(&mut self, damping: Option<DampingConfig>) {
        self.damping = damping;
    }

    /// Whether any owned vertex has a parked re-spray awaiting release.
    /// The mailbox engine uses this to keep posting (possibly empty)
    /// flushes to an otherwise-idle shard until its pending work drains.
    pub fn has_pending(&self) -> bool {
        !self.pending_set.is_empty()
    }

    /// Shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of owned vertices.
    pub fn num_owned(&self) -> usize {
        self.rows.len()
    }

    /// Whether this shard owns `v` under the current partitioner.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.partitioner.assign(v) == self.shard
    }

    /// Owner shard of `v` under the current partitioner.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.partitioner.assign(v)
    }

    /// Owned vertices with materialized rows, ascending (the iteration
    /// order of partition-owned counter collection).
    pub fn owned_sorted(&self) -> Vec<VertexId> {
        let mut owned: Vec<VertexId> = self.rows.keys().copied().collect();
        owned.sort_unstable();
        owned
    }

    /// The shard-owned adjacency row of `v` (empty for vertices without a
    /// materialized row — isolated fresh ids).
    pub fn neighbors_of(&self, v: VertexId) -> &[VertexId] {
        self.rows
            .get(&v)
            .map(|r| r.neighbors.as_slice())
            .unwrap_or(&[])
    }

    /// Start a new flush: reset the distinct-slot (η) accounting.
    /// [`apply_deltas`](Self::apply_deltas) does this implicitly; a shard
    /// that participates in a flush **only** through exchange (no routed
    /// deltas — possible under the mailbox engine's sub-queue admission)
    /// must call this before its first [`exchange`](Self::exchange) of
    /// the flush, or slots it repaired in an earlier flush would be
    /// deduplicated out of this flush's η.
    pub fn begin_flush(&mut self) {
        self.touched.clear();
        self.flush_dirty.clear();
    }

    /// Apply this shard's per-vertex deltas (Phase A of Algorithm 2), then
    /// drain the local cascade; cross-shard envelopes are appended to
    /// `out`. Starts a new flush (resets the distinct-slot accounting).
    pub fn apply_deltas(
        &mut self,
        deltas: &[(VertexId, VertexDelta)],
        out: &mut Vec<Envelope>,
    ) -> ShardFlushReport {
        self.begin_flush();
        let mut report = ShardFlushReport::default();
        let mut staged = Vec::new();
        // Bring the adjacency rows to the post-batch topology first:
        // every muting decision of this flush — the release gate below
        // included — reads post-batch degrees, exactly like the
        // centralized engine's `graph_after`.
        for (v, delta) in deltas {
            debug_assert!(self.owns(*v), "delta routed to the wrong shard");
            self.apply_adjacency(*v, delta);
        }
        // Damping: release parked re-sprays next, against the
        // pre-Phase-A labels and records (the centralized engine stages
        // its releases at the same point).
        self.stage_releases(&mut staged);
        for (v, delta) in deltas {
            self.phase_a(*v, delta, &mut staged, &mut report);
        }
        self.route(staged, out, &mut report);
        self.drain_local(out, &mut report);
        report
    }

    /// Damping release: for every owned vertex with parked slots whose
    /// degree dropped back to the cap or under, in ascending (vertex,
    /// slot) order, forward the current value of each parked slot to its
    /// receivers under the per-hub `flush_budget` (always at least one
    /// slot, so pending work cannot starve). Vertices still over the cap
    /// stay parked untouched. The staged `Value`s carry the pick-origin
    /// guard, so a receiver that re-picks away this very flush drops
    /// them.
    fn stage_releases(&mut self, staged: &mut Vec<Envelope>) {
        let Some(cfg) = self.damping else { return };
        if self.pending_set.is_empty() {
            return;
        }
        let budget = cfg.flush_budget.max(1);
        let mut vids: Vec<VertexId> = self.pending_set.iter().copied().collect();
        vids.sort_unstable();
        for v in vids {
            let row = self
                .rows
                .get_mut(&v)
                .expect("pending index points to a row");
            if row.neighbors.len() > cfg.degree_cap {
                continue; // still muted: receivers keep waiting
            }
            let slots = std::mem::take(&mut row.pending);
            let mut kept: Vec<u32> = Vec::new();
            let mut used = 0usize;
            let mut released_any = false;
            let mut stopped = false;
            for t in slots {
                if stopped {
                    kept.push(t);
                    continue;
                }
                let fanout = row.records.iter().filter(|r| r.slot == t).count();
                if released_any && used + fanout > budget {
                    stopped = true;
                    kept.push(t);
                    continue;
                }
                used += fanout;
                released_any = true;
                let current = row.labels[t as usize];
                for r in row.records.iter().filter(|r| r.slot == t) {
                    staged.push(Envelope {
                        to: r.receiver,
                        from: v,
                        msg: ShardMsg::Value {
                            t: r.k,
                            origin_pos: t,
                            label: current,
                        },
                    });
                }
            }
            if kept.is_empty() {
                self.pending_set.remove(&v);
            }
            row.pending = kept;
        }
    }

    /// Deliver a round of inbound envelopes (all addressed to owned
    /// vertices), drain the local cascade, and append outbound cross-shard
    /// envelopes to `out`.
    pub fn exchange(&mut self, inbox: Vec<Envelope>, out: &mut Vec<Envelope>) -> ShardFlushReport {
        let mut report = ShardFlushReport::default();
        self.local.extend(inbox);
        self.drain_local(out, &mut report);
        report
    }

    /// Replace the ownership map (repartitioning). The caller is
    /// responsible for moving rows via [`extract_rows`](Self::extract_rows)
    /// / [`adopt_rows`](Self::adopt_rows) so that every vertex's row lives
    /// on its (new) owner exactly once.
    pub fn set_partitioner(&mut self, partitioner: Arc<dyn Partitioner>) {
        self.partitioner = partitioner;
    }

    /// Remove and return the rows of `ids` (vertices this shard no longer
    /// owns), with their dirty flags. Must only be called between flushes
    /// (no envelopes in flight).
    pub fn extract_rows(&mut self, ids: &[VertexId]) -> Vec<(VertexId, VertexRowData)> {
        debug_assert!(
            self.slot_deltas.is_empty(),
            "slot deltas must be drained before rows migrate"
        );
        ids.iter()
            .map(|&v| {
                let row = self.rows.remove(&v).expect("extracting a row we own");
                let dirty = self.dirty.remove(&v);
                self.pending_set.remove(&v);
                (
                    v,
                    VertexRowData {
                        labels: row.labels,
                        picks: row.picks,
                        epochs: row.epochs,
                        records: row.records,
                        neighbors: row.neighbors,
                        dirty,
                        pending: row.pending,
                    },
                )
            })
            .collect()
    }

    /// Install rows migrated from other shards.
    pub fn adopt_rows(&mut self, rows: Vec<(VertexId, VertexRowData)>) {
        debug_assert!(
            self.slot_deltas.is_empty(),
            "slot deltas must be drained before rows migrate"
        );
        for (v, data) in rows {
            debug_assert!(self.owns(v), "adopting a row we do not own");
            if data.dirty {
                self.dirty.insert(v);
            }
            if !data.pending.is_empty() {
                self.pending_set.insert(v);
            }
            let prev = self.rows.insert(
                v,
                VertexRow {
                    labels: data.labels,
                    picks: data.picks,
                    epochs: data.epochs,
                    records: data.records,
                    neighbors: data.neighbors,
                    pending: data.pending,
                },
            );
            debug_assert!(prev.is_none(), "adopted row collides with a live one");
        }
    }

    /// Take the label-slot changes accumulated since the last call, in
    /// application order — the counter-maintenance stream for a central
    /// [`EdgeCounters`](crate::edge_counters::EdgeCounters) store.
    ///
    /// Must be drained **once per flush, before any row migration**: a
    /// vertex's deltas chain across drains only if the drains happen in
    /// emission order, and migration hands the vertex (and its future
    /// deltas) to a different shard. [`extract_rows`](Self::extract_rows)
    /// / [`adopt_rows`](Self::adopt_rows) assert the queue is empty.
    pub fn take_slot_deltas(&mut self) -> Vec<SlotDelta> {
        std::mem::take(&mut self.slot_deltas)
    }

    /// Owned vertices whose label sequences changed since the last drain,
    /// with their current sequences; clears the dirty set.
    pub fn drain_dirty(&mut self) -> Vec<(VertexId, Vec<Label>)> {
        let mut dirty: Vec<VertexId> = self.dirty.drain().collect();
        dirty.sort_unstable();
        dirty
            .into_iter()
            .map(|v| (v, self.rows[&v].labels.clone()))
            .collect()
    }

    /// Copy this shard's rows back into a global [`LabelState`] (test and
    /// inspection support; `state` must be sized to cover the owned ids).
    pub fn export_into(&self, state: &mut LabelState) {
        let mut owned: Vec<&VertexId> = self.rows.keys().collect();
        owned.sort_unstable();
        for &v in owned {
            let row = &self.rows[&v];
            for t in 1..=self.t_max as u32 {
                state.set_label(v, t, row.labels[t as usize]);
                let (src, pos) = row.picks[t as usize - 1];
                state.set_pick(v, t, src, pos);
                while state.epoch(v, t) < row.epochs[t as usize - 1] {
                    state.bump_epoch(v, t);
                }
            }
            for r in &row.records {
                state.add_record(v, r.slot, r.receiver, r.k);
            }
        }
    }

    /// Fold one vertex's edge delta into its adjacency row (creating the
    /// row for a fresh vertex). Runs for the whole shard before release
    /// staging and Phase A, so both see post-batch degrees.
    fn apply_adjacency(&mut self, v: VertexId, delta: &VertexDelta) {
        let t_max = self.t_max;
        let row = self
            .rows
            .entry(v)
            .or_insert_with(|| VertexRow::fresh(v, t_max));
        for &gone in &delta.removed {
            if let Ok(i) = row.neighbors.binary_search(&gone) {
                row.neighbors.remove(i);
            }
        }
        for &new in &delta.added {
            if let Err(i) = row.neighbors.binary_search(&new) {
                row.neighbors.insert(i, new);
            }
        }
    }

    /// Phase A for one owned vertex: re-examine every pick slot against
    /// the (already updated) adjacency row, stage protocol messages.
    fn phase_a(
        &mut self,
        v: VertexId,
        delta: &VertexDelta,
        staged: &mut Vec<Envelope>,
        report: &mut ShardFlushReport,
    ) {
        let t_max = self.t_max as u32;
        let seed = self.seed;
        let value_pruned = self.value_pruned;
        let row = self
            .rows
            .get_mut(&v)
            .expect("apply_adjacency materialized the row");
        for t in 1..=t_max {
            let ti = t as usize - 1;
            let (old_src, old_pos) = row.picks[ti];
            if row.neighbors.is_empty() {
                if old_src != NO_SOURCE {
                    staged.push(Envelope {
                        to: old_src,
                        from: v,
                        msg: ShardMsg::Unrecord {
                            slot: old_pos,
                            k: t,
                        },
                    });
                    row.picks[ti] = (NO_SOURCE, 0);
                    let own = row.labels[0];
                    let old = row.labels[t as usize];
                    let changed = old != own;
                    row.labels[t as usize] = own;
                    report.repicks += 1;
                    if self.touched.insert((v, t)) {
                        report.eta += 1;
                    }
                    if changed {
                        if self.flush_dirty.insert(v) {
                            report.dirty_vertices += 1;
                        }
                        self.dirty.insert(v);
                        self.slot_deltas.push(SlotDelta {
                            v,
                            slot: t,
                            old,
                            new: own,
                        });
                    }
                    // A reverted slot gets no incoming Value to trigger
                    // forwarding, so notify its receivers directly. (A
                    // reverted vertex has degree 0 — always under any
                    // damping cap — but a former hub may still carry a
                    // parked entry; this forward supersedes it.)
                    if !value_pruned || changed {
                        pending_clear(&mut row.pending, t);
                        if row.pending.is_empty() {
                            self.pending_set.remove(&v);
                        }
                        for r in &row.records {
                            if r.slot == t {
                                staged.push(Envelope {
                                    to: r.receiver,
                                    from: v,
                                    msg: ShardMsg::Value {
                                        t: r.k,
                                        origin_pos: t,
                                        label: own,
                                    },
                                });
                            }
                        }
                    }
                }
                continue;
            }
            let needs_full_repick =
                old_src == NO_SOURCE || delta.removed.binary_search(&old_src).is_ok();
            if needs_full_repick {
                row.epochs[ti] += 1;
                let (src, pos) = draw_pick(seed, v, t, row.epochs[ti], &row.neighbors);
                stage_repick(v, t, old_src, old_pos, src, pos, row, staged, report);
                continue;
            }
            if delta.added.is_empty() {
                continue; // Category 2, source survived (Theorem 4).
            }
            // Category 3, surviving pick: keep with probability n_u / deg.
            let deg = row.neighbors.len();
            let na = delta.added.len();
            row.epochs[ti] += 1;
            let key = rslpa_graph::rng::PickKey {
                seed,
                vertex: v,
                iteration: t,
                epoch: row.epochs[ti],
            };
            report.coins += 1;
            if key.unit_f64(rslpa_graph::rng::Stream::Cat3Coin) < na as f64 / deg as f64 {
                // Redraw from the new neighbors only (Theorem 5).
                row.epochs[ti] += 1;
                let (src, pos) = draw_pick(seed, v, t, row.epochs[ti], &delta.added);
                stage_repick(v, t, old_src, old_pos, src, pos, row, staged, report);
            }
        }
    }

    /// Apply every locally-deliverable envelope, batch-by-destination with
    /// the BSP step ordering, until only cross-shard envelopes remain.
    fn drain_local(&mut self, out: &mut Vec<Envelope>, report: &mut ShardFlushReport) {
        while !self.local.is_empty() {
            let pending = std::mem::take(&mut self.local);
            // Group by destination, preserving arrival order per vertex.
            let mut by_dest: FxHashMap<VertexId, Vec<Envelope>> = FxHashMap::default();
            for env in pending {
                by_dest.entry(env.to).or_default().push(env);
            }
            let mut dests: Vec<VertexId> = by_dest.keys().copied().collect();
            dests.sort_unstable();
            let mut staged = Vec::new();
            for v in dests {
                self.step_vertex(v, &by_dest[&v], &mut staged, report);
            }
            self.route(staged, out, report);
        }
    }

    /// One vertex's superstep: unrecords, values (coalesced), fetches,
    /// then forwards — the exact ordering of the BSP correction program.
    fn step_vertex(
        &mut self,
        v: VertexId,
        inbox: &[Envelope],
        staged: &mut Vec<Envelope>,
        report: &mut ShardFlushReport,
    ) {
        let damping = self.damping;
        let row = self.rows.get_mut(&v).expect("message to unknown vertex");
        // 1. Unrecords: detach receivers that repicked away.
        for env in inbox {
            if let ShardMsg::Unrecord { slot, k } = env.msg {
                let i = row
                    .records
                    .iter()
                    .position(|r| r.slot == slot && r.receiver == env.from && r.k == k)
                    .expect("unrecord must reference a live record");
                row.records.swap_remove(i);
            }
        }
        // 2. Values, staleness-guarded; collect slots whose forward is due.
        let mut changed_slots: Vec<u32> = Vec::new();
        for env in inbox {
            if let ShardMsg::Value {
                t,
                origin_pos,
                label,
            } = env.msg
            {
                let ti = t as usize - 1;
                if row.picks[ti] != (env.from, origin_pos) {
                    continue; // stale: the slot was repicked meanwhile
                }
                report.deliveries += 1;
                let old = row.labels[t as usize];
                let changed = old != label;
                row.labels[t as usize] = label;
                if self.touched.insert((v, t)) {
                    report.eta += 1;
                }
                if changed {
                    report.value_changes += 1;
                    if self.flush_dirty.insert(v) {
                        report.dirty_vertices += 1;
                    }
                    self.dirty.insert(v);
                    self.slot_deltas.push(SlotDelta {
                        v,
                        slot: t,
                        old,
                        new: label,
                    });
                    // Damping: a muted vertex parks the changed slot —
                    // its receivers catch up at the unmute release.
                    if let Some(cfg) = damping {
                        if row.neighbors.len() > cfg.degree_cap {
                            pending_park(&mut row.pending, t);
                            self.pending_set.insert(v);
                        }
                    }
                }
                if !self.value_pruned || changed {
                    changed_slots.push(t);
                }
            }
        }
        changed_slots.sort_unstable();
        changed_slots.dedup();
        // 3. Serve fetches with post-update labels; snapshot the record
        //    count first so step 4 does not double-deliver to them.
        //    A muted owner (over the degree cap) registers the record but
        //    suppresses the reply: the requester keeps its own previous
        //    value by silence, and the parked slot re-delivers at the
        //    unmute release. (The centralized engine's muted re-pick read
        //    is the same move.)
        let muted_owner = damping.is_some_and(|cfg| row.neighbors.len() > cfg.degree_cap);
        let pre_fetch_records = row.records.len();
        for env in inbox {
            if let ShardMsg::Fetch { pos, k } = env.msg {
                row.records.push(Record {
                    slot: pos,
                    receiver: env.from,
                    k,
                });
                if muted_owner {
                    pending_park(&mut row.pending, pos);
                    self.pending_set.insert(v);
                    report.damped_deferrals += 1;
                    continue;
                }
                staged.push(Envelope {
                    to: env.from,
                    from: v,
                    msg: ShardMsg::Value {
                        t: k,
                        origin_pos: pos,
                        label: row.labels[pos as usize],
                    },
                });
            }
        }
        // 4. Forward corrections to previously-registered receivers — or,
        //    at an over-cap vertex under damping, defer the whole
        //    re-spray (changes were parked at their change sites).
        if let Some(cfg) = damping {
            if row.neighbors.len() > cfg.degree_cap {
                report.damped_deferrals += changed_slots.len();
                return;
            }
        }
        for &t in &changed_slots {
            if damping.is_some() {
                // Under the cap (again): this forward updates every
                // receiver, superseding any parked entry.
                pending_clear(&mut row.pending, t);
                if row.pending.is_empty() {
                    self.pending_set.remove(&v);
                }
            }
            let label = row.labels[t as usize];
            for i in 0..pre_fetch_records {
                let r = row.records[i];
                if r.slot == t {
                    staged.push(Envelope {
                        to: r.receiver,
                        from: v,
                        msg: ShardMsg::Value {
                            t: r.k,
                            origin_pos: t,
                            label,
                        },
                    });
                }
            }
        }
    }

    /// Split staged envelopes into the local queue and the cross-shard
    /// outbox.
    fn route(
        &mut self,
        staged: Vec<Envelope>,
        out: &mut Vec<Envelope>,
        report: &mut ShardFlushReport,
    ) {
        for env in staged {
            if self.owns(env.to) {
                self.local.push(env);
            } else {
                report.boundary_msgs += 1;
                out.push(env);
            }
        }
    }
}

/// Stage the bookkeeping of a re-drawn pick: unrecord the old source,
/// register with (and fetch from) the new one.
#[allow(clippy::too_many_arguments)]
fn stage_repick(
    v: VertexId,
    t: u32,
    old_src: VertexId,
    old_pos: u32,
    src: VertexId,
    pos: u32,
    row: &mut VertexRow,
    staged: &mut Vec<Envelope>,
    report: &mut ShardFlushReport,
) {
    if old_src != NO_SOURCE {
        staged.push(Envelope {
            to: old_src,
            from: v,
            msg: ShardMsg::Unrecord {
                slot: old_pos,
                k: t,
            },
        });
    }
    row.picks[t as usize - 1] = (src, pos);
    staged.push(Envelope {
        to: src,
        from: v,
        msg: ShardMsg::Fetch { pos, k: t },
    });
    report.repicks += 1;
}

/// Shared synchronization state of a peer-to-peer mailbox mesh: the round
/// barrier plus a **monotone** count of envelopes ever sent over peer
/// channels. The counter is never reset — each port diffs successive
/// snapshots — so no reset has to be ordered against anyone's sends.
struct MeshCore {
    barrier: SenseBarrier,
    sent: AtomicU64,
    /// The round's agreed snapshot of `sent`, stored by the barrier leader
    /// inside the pre-release closure (so it is taken after every arrival,
    /// i.e. after every send of the round) and published to all ports by
    /// the barrier's release. Relaxed accesses suffice: the sense flip's
    /// release/acquire edge orders them.
    snapshot: AtomicU64,
}

/// Per-flush accounting of one port's mesh exchange (summable across
/// flushes; the serve layer folds these into its stats histograms).
#[derive(Clone, Debug, Default)]
pub struct MeshExchangeReport {
    /// Exchange rounds that delivered at least one envelope somewhere.
    pub rounds: u64,
    /// Peer batches this port sent (one channel hop each).
    pub batches_sent: u64,
    /// Envelopes this port sent.
    pub envelopes_sent: u64,
    /// Inbox depth (envelopes drained) per delivering round.
    pub inbox_depths: Vec<u64>,
    /// Wall time this port spent parked on the round barrier
    /// (`barrier_arrive + barrier_depart`).
    pub barrier_wait: Duration,
    /// Barrier time spent waiting for stragglers to arrive (protocol /
    /// imbalance cost).
    pub barrier_arrive: Duration,
    /// Barrier time between the leader's release and this port actually
    /// resuming (wakeup/scheduling latency).
    pub barrier_depart: Duration,
    /// The mesh barrier was poisoned mid-exchange (a peer worker died);
    /// the session bailed out without reaching quiescence.
    pub poisoned: bool,
}

/// A cloneable handle that poisons a mesh's round barrier from any
/// thread. A dying worker (or the coordinator that noticed it die) uses
/// this to make sure no surviving peer stays parked on the barrier
/// waiting for an arrival that will never come.
#[derive(Clone)]
pub struct MeshPoisoner(Arc<MeshCore>);

impl MeshPoisoner {
    /// Poison the mesh barrier (idempotent, one-way).
    pub fn poison(&self) {
        self.0.barrier.poison();
    }
}

/// One shard's endpoint of the peer-to-peer mailbox mesh: a direct
/// channel to every peer, the shared round barrier, and this port's last
/// sent-counter snapshot.
///
/// Every exchange session must involve **every** port of the mesh (the
/// barrier is sized to the shard count), and each session leaves all
/// ports with the same snapshot — the invariant that lets the mesh be
/// reused across flushes without a reset.
pub struct MailboxPort {
    shard: usize,
    peers: Vec<Option<Sender<Vec<Envelope>>>>,
    inbox: Receiver<Vec<Envelope>>,
    core: Arc<MeshCore>,
    last_snapshot: u64,
    /// This port's private sense flag for the mesh barrier (flipped every
    /// round; see [`SenseBarrier`]).
    sense: bool,
    /// Flight-recorder handle for this port's lane (the owning worker
    /// thread's), attached by the serve layer; `None` leaves the port
    /// uninstrumented.
    trace: Option<TraceWriter>,
}

/// Build a fully-connected mailbox mesh for `shards` ports (index `i` of
/// the returned vector belongs to shard `i`).
pub fn build_mesh(shards: usize) -> Vec<MailboxPort> {
    let core = Arc::new(MeshCore {
        barrier: SenseBarrier::new(shards),
        sent: AtomicU64::new(0),
        snapshot: AtomicU64::new(0),
    });
    let mut senders: Vec<Sender<Vec<Envelope>>> = Vec::with_capacity(shards);
    let mut inboxes: Vec<Receiver<Vec<Envelope>>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        inboxes.push(rx);
    }
    inboxes
        .into_iter()
        .enumerate()
        .map(|(shard, inbox)| MailboxPort {
            shard,
            peers: senders
                .iter()
                .enumerate()
                .map(|(i, tx)| (i != shard).then(|| tx.clone()))
                .collect(),
            inbox,
            core: Arc::clone(&core),
            last_snapshot: 0,
            sense: false,
            trace: None,
        })
        .collect()
}

impl MailboxPort {
    /// Shard index this port belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Attach a flight-recorder handle. The writer must be bound to the
    /// lane of the thread that will drive this port — the lane rings are
    /// single-writer, and the port records from the owning worker thread.
    pub fn set_trace(&mut self, trace: TraceWriter) {
        self.trace = Some(trace);
    }

    /// Poison the mesh barrier: every port currently parked (or arriving
    /// later) bails out of its exchange with `poisoned` set. Called by a
    /// dying worker so its peers do not wait forever for its arrival.
    pub fn poison_mesh(&self) {
        self.core.barrier.poison();
    }

    /// Whether the mesh barrier has been poisoned (some worker died).
    pub fn mesh_poisoned(&self) -> bool {
        self.core.barrier.is_poisoned()
    }

    /// Detachable poison handle for this port's mesh: poisons the round
    /// barrier without borrowing the port, so a coordinator (or a worker's
    /// panic guard) can unblock parked peers from another thread.
    pub fn poisoner(&self) -> MeshPoisoner {
        MeshPoisoner(Arc::clone(&self.core))
    }

    /// Drive boundary exchange to quiescence, delivering envelopes
    /// directly to peer mailboxes. `first_out` is this shard's Phase-A
    /// outbox; corrections received along the way are applied to `state`
    /// and their follow-up envelopes forwarded in later rounds.
    ///
    /// Round protocol (identical on every port, which is what keeps the
    /// barrier deadlock-free):
    ///
    /// 1. **send** — group the staged outbox by owner shard, send one
    ///    batch per peer with traffic, add the envelope count to the
    ///    shared monotone counter;
    /// 2. **one barrier wait** — the last arriver (leader) copies the
    ///    shared counter into the round-snapshot slot *inside the
    ///    pre-release closure*: every send of the round is already counted
    ///    (its port has arrived), no port can be sending (none released),
    ///    and the release publishes the snapshot to every port. This is
    ///    the single-barrier quiescence rule that replaced the old
    ///    barrier/read/barrier sandwich;
    /// 3. if the snapshot did not advance, nothing was sent by anyone and
    ///    everything previously sent was already drained: **quiescent**.
    ///    Otherwise drain the own mailbox, apply
    ///    ([`ShardRepairState::exchange`]), and loop.
    ///
    /// A batch sent early in step 1 may be drained by a peer still in its
    /// *previous* round's step 3 — harmless, because the repaired fixed
    /// point is delivery-order independent and the counter tracks sends,
    /// not receipts (the accelerated round then just drains empty).
    ///
    /// If the mesh barrier is poisoned (a peer worker panicked), the
    /// session bails out with `poisoned` set instead of waiting for an
    /// arrival that will never come.
    pub fn exchange_to_quiescence(
        &mut self,
        state: &mut ShardRepairState,
        first_out: Vec<Envelope>,
        report: &mut ShardFlushReport,
    ) -> MeshExchangeReport {
        let mut mesh = MeshExchangeReport::default();
        let mut staged = first_out;
        loop {
            if self.core.barrier.is_poisoned() {
                mesh.poisoned = true;
                return mesh;
            }
            let mut by_peer: Vec<Vec<Envelope>> = vec![Vec::new(); self.peers.len()];
            for env in staged.drain(..) {
                let owner = state.owner_of(env.to);
                debug_assert_ne!(owner, self.shard, "boundary envelope addressed to self");
                by_peer[owner].push(env);
            }
            let mut sent_now = 0u64;
            for (peer, batch) in by_peer.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                sent_now += batch.len() as u64;
                mesh.batches_sent += 1;
                let delivered = self.peers[peer]
                    .as_ref()
                    .expect("no channel to self")
                    .send(batch);
                if delivered.is_err() {
                    // The peer's inbox is gone: its worker died. Poison the
                    // mesh so every surviving port bails out too, instead
                    // of deadlocking on an arrival that will never come.
                    self.core.barrier.poison();
                    mesh.poisoned = true;
                    return mesh;
                }
            }
            mesh.envelopes_sent += sent_now;
            if sent_now > 0 {
                self.core.sent.fetch_add(sent_now, Ordering::Release);
            }
            let bw_t0 = self
                .trace
                .as_ref()
                .filter(|t| t.enabled())
                .map(|t| t.now_ns());
            // Single barrier: the leader snapshots the sent counter in the
            // pre-release slot (all arrived, none released), and the
            // release's happens-before edge makes both the snapshot and
            // every round send (mpsc batch + counter add sequenced before
            // the sender's arrival) visible to every port.
            let core = &*self.core;
            let wait = core.barrier.wait_then(&mut self.sense, || {
                core.snapshot
                    .store(core.sent.load(Ordering::Acquire), Ordering::Relaxed);
            });
            if wait.poisoned {
                mesh.poisoned = true;
                return mesh;
            }
            let snapshot = core.snapshot.load(Ordering::Relaxed);
            mesh.barrier_wait += wait.total();
            mesh.barrier_arrive += wait.arrive;
            mesh.barrier_depart += wait.depart;
            if let (Some(t), Some(t0)) = (&self.trace, bw_t0) {
                let arrive_ns = wait.arrive.as_nanos() as u64;
                let depart_ns = wait.depart.as_nanos() as u64;
                // The total barrier_wait span, plus its two phases as
                // adjacent sub-spans (arrive then depart).
                t.record_span(
                    names::BARRIER_WAIT,
                    t0,
                    t.now_ns().saturating_sub(t0),
                    mesh.rounds,
                );
                t.record_span(names::BARRIER_ARRIVE, t0, arrive_ns, mesh.rounds);
                t.record_span(
                    names::BARRIER_DEPART,
                    t0 + arrive_ns,
                    depart_ns,
                    mesh.rounds,
                );
            }
            let round_sent = snapshot - self.last_snapshot;
            self.last_snapshot = snapshot;
            if round_sent == 0 {
                debug_assert!(
                    self.inbox.try_recv().is_err(),
                    "mesh quiescent with undelivered envelopes"
                );
                return mesh;
            }
            mesh.rounds += 1;
            let round_t0 = self
                .trace
                .as_ref()
                .filter(|t| t.enabled())
                .map(|t| t.now_ns());
            let mut inbound: Vec<Envelope> = Vec::new();
            while let Ok(batch) = self.inbox.try_recv() {
                inbound.extend(batch);
            }
            mesh.inbox_depths.push(inbound.len() as u64);
            let drained = inbound.len() as u64;
            if !inbound.is_empty() {
                report.absorb(&state.exchange(inbound, &mut staged));
            }
            if let (Some(t), Some(t0)) = (&self.trace, round_t0) {
                t.record_span(
                    names::EXCHANGE_ROUND,
                    t0,
                    t.now_ns().saturating_sub(t0),
                    drained,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::apply_correction;
    use crate::propagation::run_propagation;
    use crate::verify::check_consistency;
    use rslpa_graph::{DynamicGraph, EditBatch, HashPartitioner};

    /// Drive a set of shards over one applied batch until quiescence,
    /// mirroring what the serve coordinator does (including the per-flush
    /// slot-delta drain). Returns the flush report; the drained deltas
    /// are discarded here — `run_shards_streaming` keeps them.
    fn run_shards(
        shards: &mut [ShardRepairState],
        partitioner: &dyn Partitioner,
        applied: &rslpa_graph::AppliedBatch,
    ) -> ShardFlushReport {
        run_shards_streaming(shards, partitioner, applied).0
    }

    fn run_shards_streaming(
        shards: &mut [ShardRepairState],
        partitioner: &dyn Partitioner,
        applied: &rslpa_graph::AppliedBatch,
    ) -> (ShardFlushReport, Vec<SlotDelta>) {
        let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
        let mut total = ShardFlushReport::default();
        let mut outbox = Vec::new();
        for (shard, deltas) in shards.iter_mut().zip(&per_shard) {
            total.absorb(&shard.apply_deltas(deltas, &mut outbox));
        }
        while !outbox.is_empty() {
            let mut inboxes: Vec<Vec<Envelope>> = vec![Vec::new(); shards.len()];
            for env in outbox.drain(..) {
                inboxes[partitioner.assign(env.to)].push(env);
            }
            for (shard, inbox) in shards.iter_mut().zip(inboxes) {
                if !inbox.is_empty() {
                    total.absorb(&shard.exchange(inbox, &mut outbox));
                }
            }
        }
        // Drain the flush's slot-delta stream the way the serve
        // coordinator does (before any migration can happen). Shard
        // concatenation order is irrelevant to counter maintenance — one
        // vertex's deltas all come from its single owner shard.
        let mut deltas = Vec::new();
        for shard in shards.iter_mut() {
            deltas.extend(shard.take_slot_deltas());
        }
        (total, deltas)
    }

    fn assemble(shards: &[ShardRepairState], n: usize, t_max: usize, seed: u64) -> LabelState {
        let mut state = LabelState::new(n, t_max, seed);
        for shard in shards {
            shard.export_into(&mut state);
        }
        state
    }

    fn compare_states(a: &LabelState, b: &LabelState, n: usize, t_max: u32) {
        for v in 0..n as VertexId {
            assert_eq!(
                a.label_sequence(v),
                b.label_sequence(v),
                "labels differ at {v}"
            );
            for t in 1..=t_max {
                assert_eq!(a.pick(v, t), b.pick(v, t), "picks differ at ({v}, {t})");
                assert_eq!(a.epoch(v, t), b.epoch(v, t), "epochs differ at ({v}, {t})");
            }
        }
        assert_eq!(a.total_records(), b.total_records());
    }

    fn cube_graph() -> AdjacencyGraph {
        AdjacencyGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
                (2, 6),
            ],
        )
    }

    fn exercise(batch: EditBatch, seed: u64, parts: usize, pruned: bool) {
        let t_max = 10usize;
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), t_max, seed);
        let applied = dg.apply(&batch).unwrap();

        let mut central = state0.clone();
        apply_correction(&mut central, dg.graph(), &applied, pruned);

        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
        let pre_batch = cube_graph(); // pre-batch adjacency
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| {
                let mut shard =
                    ShardRepairState::from_state(&state0, &pre_batch, s, Arc::clone(&partitioner));
                shard.set_value_pruned(pruned);
                shard
            })
            .collect();
        run_shards(&mut shards, partitioner.as_ref(), &applied);
        let sharded = assemble(&shards, 8, t_max, seed);
        check_consistency(&sharded, dg.graph()).unwrap();
        compare_states(&central, &sharded, 8, t_max as u32);
    }

    #[test]
    fn matches_centralized_on_deletion() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(EditBatch::from_lists([], [(0, 1)]), seed, parts, false);
            }
        }
    }

    #[test]
    fn matches_centralized_on_insertion() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(EditBatch::from_lists([(1, 5)], []), seed, parts, false);
            }
        }
    }

    #[test]
    fn matches_centralized_on_mixed_batch() {
        for seed in 0..5 {
            for parts in [1, 2, 4] {
                exercise(
                    EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]),
                    seed,
                    parts,
                    false,
                );
            }
        }
    }

    #[test]
    fn matches_centralized_pruned_mode() {
        for seed in 0..5 {
            exercise(EditBatch::from_lists([(1, 7)], [(2, 3)]), seed, 3, true);
        }
    }

    #[test]
    fn multi_batch_continuity_across_shard_counts() {
        // Apply a sequence of batches; shard repair must stay bit-aligned
        // with the centralized state at every step, for every shard count.
        let t_max = 8usize;
        let seed = 5u64;
        let batches = [
            EditBatch::from_lists([(0, 2)], [(3, 0)]),
            EditBatch::from_lists([(1, 3)], [(0, 2)]),
            EditBatch::from_lists([(0, 6), (3, 7)], [(4, 5)]),
        ];
        for parts in [1, 2, 4] {
            let mut dg_c = DynamicGraph::new(cube_graph());
            let mut central = run_propagation(dg_c.graph(), t_max, seed);
            let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
            let mut shards: Vec<ShardRepairState> = (0..parts)
                .map(|s| {
                    ShardRepairState::from_state(
                        &central,
                        dg_c.graph(),
                        s,
                        Arc::clone(&partitioner),
                    )
                })
                .collect();
            for batch in &batches {
                let applied = dg_c.apply(batch).unwrap();
                apply_correction(&mut central, dg_c.graph(), &applied, false);
                run_shards(&mut shards, partitioner.as_ref(), &applied);
                let sharded = assemble(&shards, 8, t_max, seed);
                compare_states(&central, &sharded, 8, t_max as u32);
            }
        }
    }

    #[test]
    fn migration_between_batches_preserves_bit_equality() {
        // Repartition mid-stream (extract + adopt + new ownership map) and
        // keep repairing: the final state must still match the
        // centralized reference bit for bit.
        let t_max = 8usize;
        let seed = 7u64;
        let parts = 3usize;
        let mut dg_c = DynamicGraph::new(cube_graph());
        let mut central = run_propagation(dg_c.graph(), t_max, seed);
        let p_old: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 1));
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| ShardRepairState::from_state(&central, dg_c.graph(), s, Arc::clone(&p_old)))
            .collect();

        let batch1 = EditBatch::from_lists([(0, 2)], [(6, 7)]);
        let applied = dg_c.apply(&batch1).unwrap();
        apply_correction(&mut central, dg_c.graph(), &applied, false);
        run_shards(&mut shards, p_old.as_ref(), &applied);

        // Migrate to a different ownership map, the way the coordinator
        // does between flushes.
        let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 99));
        let mut in_flight: Vec<Vec<(VertexId, VertexRowData)>> = vec![Vec::new(); parts];
        for shard in shards.iter_mut() {
            let leaving: Vec<VertexId> = (0..8u32)
                .filter(|&v| p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard())
                .collect();
            for (v, row) in shard.extract_rows(&leaving) {
                in_flight[p_new.assign(v)].push((v, row));
            }
        }
        for (shard, rows) in shards.iter_mut().zip(in_flight) {
            shard.set_partitioner(Arc::clone(&p_new));
            shard.adopt_rows(rows);
        }

        let batch2 = EditBatch::from_lists([(1, 6), (5, 7)], [(0, 2)]);
        let applied = dg_c.apply(&batch2).unwrap();
        apply_correction(&mut central, dg_c.graph(), &applied, false);
        run_shards(&mut shards, p_new.as_ref(), &applied);
        let sharded = assemble(&shards, 8, t_max, seed);
        compare_states(&central, &sharded, 8, t_max as u32);
    }

    #[test]
    fn fresh_vertex_attaches_identically() {
        // Vertex 8 does not exist at propagation time; the shard creates
        // its row lazily and must land exactly where the centralized
        // grow-then-repair path lands.
        let t_max = 9usize;
        let seed = 11u64;
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), t_max, seed);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(3));
        let mut shards: Vec<ShardRepairState> = (0..3)
            .map(|s| ShardRepairState::from_state(&state0, dg.graph(), s, Arc::clone(&partitioner)))
            .collect();

        let mut central = state0.clone();
        dg.ensure_vertices(9);
        central.grow(9);
        let applied = dg
            .apply(&EditBatch::from_lists([(8, 0), (8, 5)], []))
            .unwrap();
        apply_correction(&mut central, dg.graph(), &applied, false);
        run_shards(&mut shards, partitioner.as_ref(), &applied);
        let sharded = assemble(&shards, 9, t_max, seed);
        compare_states(&central, &sharded, 9, t_max as u32);
    }

    #[test]
    fn drain_dirty_reports_changed_sequences_once() {
        let t_max = 8usize;
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), t_max, 3);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(2));
        let mut shards: Vec<ShardRepairState> = (0..2)
            .map(|s| ShardRepairState::from_state(&state0, dg.graph(), s, Arc::clone(&partitioner)))
            .collect();
        let applied = dg.apply(&EditBatch::from_lists([], [(0, 1)])).unwrap();
        run_shards(&mut shards, partitioner.as_ref(), &applied);
        let assembled = assemble(&shards, 8, t_max, 3);
        let mut reported: Vec<VertexId> = Vec::new();
        for shard in &mut shards {
            for (v, labels) in shard.drain_dirty() {
                assert_eq!(labels, assembled.label_sequence(v), "sequence for {v}");
                reported.push(v);
            }
        }
        // Every vertex whose sequence differs from the pre-batch state
        // must have been reported dirty.
        for v in 0..8u32 {
            if state0.label_sequence(v) != assembled.label_sequence(v) {
                assert!(reported.contains(&v), "dirty vertex {v} not reported");
            }
        }
        // A second drain is empty.
        for shard in &mut shards {
            assert!(shard.drain_dirty().is_empty());
        }
    }

    #[test]
    fn sharded_slot_deltas_match_centralized_net_movement() {
        // The coordinator feeds shard-emitted deltas to a central counter
        // store; their compacted net effect must equal the centralized
        // engine's, whatever the shard count or message interleaving.
        use rslpa_graph::compact_slot_deltas;
        for seed in 0..4u64 {
            for parts in [1usize, 2, 4] {
                let t_max = 10usize;
                let mut dg = DynamicGraph::new(cube_graph());
                let state0 = run_propagation(dg.graph(), t_max, seed);
                let applied = dg
                    .apply(&EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]))
                    .unwrap();

                let mut central = state0.clone();
                let mut dirty = rslpa_graph::FxHashSet::default();
                let mut central_deltas = Vec::new();
                crate::incremental::apply_correction_damped(
                    &mut central,
                    dg.graph(),
                    &applied,
                    false,
                    None,
                    &mut dirty,
                    &mut central_deltas,
                );

                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let pre_batch = cube_graph();
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        ShardRepairState::from_state(
                            &state0,
                            &pre_batch,
                            s,
                            Arc::clone(&partitioner),
                        )
                    })
                    .collect();
                let (_, sharded_deltas) =
                    run_shards_streaming(&mut shards, partitioner.as_ref(), &applied);

                let norm = |deltas: &[SlotDelta]| {
                    let mut net = compact_slot_deltas(deltas);
                    net.sort_unstable_by_key(|d| (d.v, d.slot));
                    net
                };
                assert_eq!(
                    norm(&central_deltas),
                    norm(&sharded_deltas),
                    "net slot movement diverged at {parts} shards (seed {seed})"
                );
            }
        }
    }

    /// Drive one applied batch through real worker threads exchanging
    /// over a [`MailboxPort`] mesh (no coordinator in the loop).
    fn run_shards_mesh(
        shards: Vec<ShardRepairState>,
        applied: &rslpa_graph::AppliedBatch,
        partitioner: &dyn Partitioner,
    ) -> (Vec<ShardRepairState>, ShardFlushReport, Vec<SlotDelta>) {
        let per_shard = rslpa_graph::sharding::split_deltas(applied, partitioner);
        let ports = build_mesh(shards.len());
        let mut joined: Vec<(usize, ShardRepairState, ShardFlushReport, Vec<SlotDelta>)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .zip(ports)
                    .zip(&per_shard)
                    .map(|((mut shard, mut port), deltas)| {
                        s.spawn(move || {
                            let mut out = Vec::new();
                            let mut report = shard.apply_deltas(deltas, &mut out);
                            port.exchange_to_quiescence(&mut shard, out, &mut report);
                            let deltas = shard.take_slot_deltas();
                            (port.shard(), shard, report, deltas)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mesh worker"))
                    .collect()
            });
        joined.sort_unstable_by_key(|(idx, ..)| *idx);
        let mut total = ShardFlushReport::default();
        let mut all_deltas = Vec::new();
        let shards = joined
            .into_iter()
            .map(|(_, shard, report, deltas)| {
                total.absorb(&report);
                all_deltas.extend(deltas);
                shard
            })
            .collect();
        (shards, total, all_deltas)
    }

    #[test]
    fn mesh_exchange_matches_centralized_and_coordinator_paths() {
        for seed in 0..5u64 {
            for parts in [1usize, 2, 4] {
                let t_max = 10usize;
                let batch = EditBatch::from_lists([(1, 7), (3, 5)], [(0, 1), (5, 6)]);
                let mut dg = DynamicGraph::new(cube_graph());
                let state0 = run_propagation(dg.graph(), t_max, seed);
                let applied = dg.apply(&batch).unwrap();

                let mut central = state0.clone();
                apply_correction(&mut central, dg.graph(), &applied, false);

                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let pre_batch = cube_graph();
                let shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        ShardRepairState::from_state(
                            &state0,
                            &pre_batch,
                            s,
                            Arc::clone(&partitioner),
                        )
                    })
                    .collect();
                let (shards, report, _) = run_shards_mesh(shards, &applied, partitioner.as_ref());
                let meshed = assemble(&shards, 8, t_max, seed);
                check_consistency(&meshed, dg.graph()).unwrap();
                compare_states(&central, &meshed, 8, t_max as u32);
                if parts == 1 {
                    assert_eq!(report.boundary_msgs, 0);
                }
            }
        }
    }

    #[test]
    fn mesh_survives_consecutive_flushes_without_reset() {
        // The monotone sent counter is never reset; a second flush over
        // the same mesh must terminate and stay bit-identical.
        let t_max = 8usize;
        let seed = 3u64;
        let parts = 3usize;
        let batches = [
            EditBatch::from_lists([(0, 2)], [(3, 0)]),
            EditBatch::from_lists([(1, 3)], [(0, 2)]),
        ];
        let mut dg = DynamicGraph::new(cube_graph());
        let mut central = run_propagation(dg.graph(), t_max, seed);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| {
                ShardRepairState::from_state(&central, dg.graph(), s, Arc::clone(&partitioner))
            })
            .collect();
        // One mesh, reused across flushes the way the serve engine does.
        let mut ports = build_mesh(parts);
        for batch in &batches {
            let applied = dg.apply(batch).unwrap();
            apply_correction(&mut central, dg.graph(), &applied, false);
            let per_shard = rslpa_graph::sharding::split_deltas(&applied, partitioner.as_ref());
            std::thread::scope(|s| {
                for ((shard, port), deltas) in
                    shards.iter_mut().zip(ports.iter_mut()).zip(&per_shard)
                {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut report = shard.apply_deltas(deltas, &mut out);
                        port.exchange_to_quiescence(shard, out, &mut report);
                        shard.take_slot_deltas();
                    });
                }
            });
            let meshed = assemble(&shards, 8, t_max, seed);
            compare_states(&central, &meshed, 8, t_max as u32);
        }
    }

    /// A 10-spoke hub (vertex 0) with a ring through the spokes — degree
    /// 10 at the hub, ≥ 3 elsewhere, so a small cap makes the hub (and
    /// only the hub) defer.
    fn hub_graph() -> AdjacencyGraph {
        let mut edges: Vec<(VertexId, VertexId)> = (1..=10).map(|i| (0, i)).collect();
        edges.extend((1..10).map(|i| (i, i + 1)));
        AdjacencyGraph::from_edges(11, edges)
    }

    /// The centralized damped reference: per-batch states for a script.
    fn central_damped_script(
        batches: &[EditBatch],
        seed: u64,
        t_max: usize,
        cfg: DampingConfig,
    ) -> Vec<LabelState> {
        let mut dg = DynamicGraph::new(hub_graph());
        let mut state = run_propagation(dg.graph(), t_max, seed);
        let mut damper = crate::incremental::CascadeDamper::new(cfg);
        batches
            .iter()
            .map(|batch| {
                let applied = dg.apply(batch).unwrap();
                let mut dirty = FxHashSet::default();
                let mut deltas = Vec::new();
                crate::incremental::apply_correction_damped(
                    &mut state,
                    dg.graph(),
                    &applied,
                    false,
                    Some(&mut damper),
                    &mut dirty,
                    &mut deltas,
                );
                state.clone()
            })
            .collect()
    }

    fn damped_script() -> Vec<EditBatch> {
        vec![
            EditBatch::from_lists([], [(0, 3)]),
            EditBatch::from_lists([(0, 3), (2, 9)], [(0, 7)]),
            EditBatch::from_lists([(0, 7)], [(1, 2)]),
            // Pure-release flushes: pending hub slots drain on a budget.
            EditBatch::new(),
            EditBatch::new(),
            EditBatch::new(),
        ]
    }

    #[test]
    fn damped_repair_matches_centralized_across_shard_counts() {
        // The damped fixed point after every flush — including
        // budget-limited partial releases mid-drain — must be a pure
        // function of the batch sequence, whatever the shard count.
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 3,
        };
        let t_max = 10usize;
        let batches = damped_script();
        for seed in 0..4u64 {
            let reference = central_damped_script(&batches, seed, t_max, cfg);
            for parts in [1usize, 2, 4, 8] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(cfg));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                let mut deferred = 0usize;
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    let report = run_shards(&mut shards, partitioner.as_ref(), &applied);
                    deferred += report.damped_deferrals;
                    let sharded = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &sharded, 11, t_max as u32);
                }
                assert!(
                    deferred > 0,
                    "hub degree 10 over cap 4 must defer (seed {seed}, {parts} shards)"
                );
            }
        }
    }

    #[test]
    fn damped_repair_matches_centralized_over_the_mesh() {
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 3,
        };
        let t_max = 10usize;
        let batches = damped_script();
        for seed in 0..3u64 {
            let reference = central_damped_script(&batches, seed, t_max, cfg);
            for parts in [2usize, 4] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(cfg));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    let (back, _, _) = run_shards_mesh(shards, &applied, partitioner.as_ref());
                    shards = back;
                    let meshed = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &meshed, 11, t_max as u32);
                }
            }
        }
    }

    #[test]
    fn pending_rows_survive_migration_bit_exactly() {
        // Repartition mid-drain — while hub slots are still parked — and
        // keep flushing: parked entries must travel with their rows.
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 2,
        };
        let t_max = 10usize;
        let seed = 9u64;
        let parts = 3usize;
        let batches = damped_script();
        let reference = central_damped_script(&batches, seed, t_max, cfg);

        let p_old: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 1));
        let state0 = run_propagation(&hub_graph(), t_max, seed);
        let mut shards: Vec<ShardRepairState> = (0..parts)
            .map(|s| {
                let mut sh =
                    ShardRepairState::from_state(&state0, &hub_graph(), s, Arc::clone(&p_old));
                sh.set_damping(Some(cfg));
                sh
            })
            .collect();
        let mut dg = DynamicGraph::new(hub_graph());
        for (i, batch) in batches.iter().enumerate() {
            let applied = dg.apply(batch).unwrap();
            run_shards(&mut shards, p_old.as_ref(), &applied);
            compare_states(
                &reference[i],
                &assemble(&shards, 11, t_max, seed),
                11,
                t_max as u32,
            );
            if i == 1 {
                // Mid-drain migration: the hub has parked slots here.
                assert!(
                    shards.iter().any(|s| s.has_pending()),
                    "script must leave pending work at batch 1"
                );
                let p_new: Arc<dyn Partitioner> = Arc::new(HashPartitioner::with_seed(parts, 99));
                let mut in_flight: Vec<Vec<(VertexId, VertexRowData)>> = vec![Vec::new(); parts];
                for shard in shards.iter_mut() {
                    let leaving: Vec<VertexId> = (0..11u32)
                        .filter(|&v| {
                            p_old.assign(v) == shard.shard() && p_new.assign(v) != shard.shard()
                        })
                        .collect();
                    for (v, row) in shard.extract_rows(&leaving) {
                        in_flight[p_new.assign(v)].push((v, row));
                    }
                }
                for (shard, rows) in shards.iter_mut().zip(in_flight) {
                    shard.set_partitioner(Arc::clone(&p_new));
                    shard.adopt_rows(rows);
                }
                // Later flushes run under the new map.
                return pending_migration_tail(
                    shards,
                    p_new,
                    dg,
                    &batches[2..],
                    &reference[2..],
                    t_max,
                    seed,
                );
            }
        }
    }

    /// Continuation of [`pending_rows_survive_migration_bit_exactly`]
    /// after the mid-drain repartition.
    fn pending_migration_tail(
        mut shards: Vec<ShardRepairState>,
        partitioner: Arc<dyn Partitioner>,
        mut dg: DynamicGraph,
        batches: &[EditBatch],
        reference: &[LabelState],
        t_max: usize,
        seed: u64,
    ) {
        for (i, batch) in batches.iter().enumerate() {
            let applied = dg.apply(batch).unwrap();
            run_shards(&mut shards, partitioner.as_ref(), &applied);
            compare_states(
                &reference[i],
                &assemble(&shards, 11, t_max, seed),
                11,
                t_max as u32,
            );
        }
    }

    #[test]
    fn damped_cap_crossing_churn_matches_centralized() {
        // Drive the hub over and back under the cap repeatedly (burst /
        // calm cycles) with random peripheral churn mixed in: the
        // sharded damped state must track the centralized damped
        // reference bit for bit at every flush, including the unmute
        // release windows. (Regression: full-scale skew_burst first
        // diverged at the window where a burst vertex dropped back
        // under the cap.)
        let cfg = DampingConfig {
            degree_cap: 4,
            flush_budget: 2,
        };
        let t_max = 8usize;
        for seed in 0..6u64 {
            // Script the windows against a shadow graph.
            let mut rng_state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };
            let mut shadow = DynamicGraph::new(hub_graph());
            let mut batches = Vec::new();
            for w in 0..12usize {
                let mut ins: Vec<(VertexId, VertexId)> = Vec::new();
                let mut del: Vec<(VertexId, VertexId)> = Vec::new();
                let g = shadow.graph();
                if w % 4 < 2 {
                    // Burst: wire the hub to every current non-neighbor.
                    for u in 1..11u32 {
                        if g.neighbors(0).binary_search(&u).is_err() {
                            ins.push((0, u));
                        }
                    }
                } else {
                    // Calm: unwire every other hub edge.
                    for (i, &u) in g.neighbors(0).iter().enumerate() {
                        if i % 2 == w % 2 {
                            del.push((0, u));
                        }
                    }
                }
                // Peripheral churn: toggle one random non-hub pair.
                let a = 1 + (rng() % 10) as u32;
                let b = 1 + (rng() % 10) as u32;
                if a != b {
                    let (a, b) = (a.min(b), a.max(b));
                    if g.neighbors(a).binary_search(&b).is_ok() {
                        del.push((a, b));
                    } else {
                        ins.push((a, b));
                    }
                }
                let batch = EditBatch::from_lists(ins, del);
                shadow.apply(&batch).unwrap();
                batches.push(batch);
            }
            let reference = central_damped_script(&batches, seed, t_max, cfg);
            for parts in [2usize, 3, 4] {
                let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(parts));
                let state0 = run_propagation(&hub_graph(), t_max, seed);
                let mut shards: Vec<ShardRepairState> = (0..parts)
                    .map(|s| {
                        let mut sh = ShardRepairState::from_state(
                            &state0,
                            &hub_graph(),
                            s,
                            Arc::clone(&partitioner),
                        );
                        sh.set_damping(Some(cfg));
                        sh
                    })
                    .collect();
                let mut dg = DynamicGraph::new(hub_graph());
                for (i, batch) in batches.iter().enumerate() {
                    let applied = dg.apply(batch).unwrap();
                    run_shards(&mut shards, partitioner.as_ref(), &applied);
                    let sharded = assemble(&shards, 11, t_max, seed);
                    compare_states(&reference[i], &sharded, 11, t_max as u32);
                }
            }
        }
    }

    #[test]
    fn boundary_message_count_is_zero_for_single_shard() {
        let mut dg = DynamicGraph::new(cube_graph());
        let state0 = run_propagation(dg.graph(), 8, 1);
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(1));
        let mut shards = vec![ShardRepairState::from_state(
            &state0,
            dg.graph(),
            0,
            Arc::clone(&partitioner),
        )];
        let applied = dg.apply(&EditBatch::from_lists([(1, 6)], [])).unwrap();
        let report = run_shards(&mut shards, partitioner.as_ref(), &applied);
        assert_eq!(report.boundary_msgs, 0);
        assert!(report.repicks > 0 || report.coins > 0);
    }
}
