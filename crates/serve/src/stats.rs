//! Per-operation latency/throughput accounting for the serve loop.
//!
//! Queries and flushes record into log₂-bucketed histograms of atomic
//! counters, so recording from many reader threads is wait-free and a
//! percentile read never stops the world. Percentiles are resolved to the
//! *geometric mean* of the containing bucket's bounds — the unbiased
//! representative of a log₂ bucket (the upper bound would overstate
//! latencies by up to 2×) — clamped to the recorded min and max.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of log₂ buckets: bucket `i` holds samples in `[2^(i-1), 2^i)` ns
/// (bucket 0 holds 0 ns). 2^63 ns ≈ 292 years — nothing saturates.
const BUCKETS: usize = 64;

/// The value a percentile resolves to when it lands in bucket `i`: the
/// geometric mean of the bucket bounds `[2^(i-1), 2^i)`, i.e.
/// `2^(i - 0.5)`, rounded to whole nanoseconds. Bucket 0 holds only
/// zero-duration samples.
fn bucket_representative(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = (1u64 << (i - 1)) as f64;
    let hi = (1u64 << i) as f64;
    (lo * hi).sqrt().round() as u64
}

/// A wait-free latency histogram over nanosecond samples.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Smallest sample; `u64::MAX` while empty.
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    saturated: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.record_value(ns);
    }

    /// Record one dimensionless sample (the histogram is just log₂
    /// buckets over `u64`; queue depths and message counts bucket the
    /// same way latencies do — the `*_ns` summary fields then carry raw
    /// values instead of nanoseconds).
    pub fn record_value(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize; // 0 for value == 0
        if idx >= BUCKETS {
            // The sample clamps into the top bucket: count it so saturated
            // data never silently reads as clean.
            self.saturated.fetch_add(1, Ordering::Relaxed);
        }
        self.buckets[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(value, Ordering::Relaxed);
        // The min almost never moves: a plain load keeps the hot read
        // path off a compare-and-swap loop.
        if value < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(value, Ordering::Relaxed);
        }
        self.max_ns.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Samples that clamped into the top bucket (value ≥ 2^63).
    pub fn saturated_samples(&self) -> u64 {
        self.saturated.load(Ordering::Relaxed)
    }

    /// Freeze the raw bucket counts. Two snapshots of the same histogram
    /// subtract ([`HistogramSnapshot::delta_since`]) into an *interval*
    /// view, so callers can report per-window percentiles instead of
    /// cumulative-only.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
        }
    }

    /// Freeze into a plain summary (counts read once; concurrent recording
    /// keeps the summary internally consistent enough for reporting).
    pub fn summarize(&self) -> LatencySummary {
        self.snapshot().summarize()
    }
}

/// Frozen bucket counts of a [`LatencyHistogram`]: summarize directly for
/// the cumulative view, or subtract an earlier snapshot for a per-window
/// (interval) view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    saturated: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            saturated: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Samples that clamped into the top bucket.
    pub fn saturated_samples(&self) -> u64 {
        self.saturated
    }

    /// The interval `prev .. self`: bucket-wise difference of two
    /// snapshots of the same (monotone) histogram. The interval's `max_ns`
    /// is approximated by the representative of its highest occupied
    /// bucket, capped at the cumulative max — the true max of just this
    /// window is not recoverable from cumulative counters, but it can
    /// never exceed the largest sample ever recorded, nor fall below the
    /// smallest. Its `min_ns` mirrors that: the lowest occupied bucket's
    /// representative, raised to the cumulative min and never above the
    /// interval max.
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i]));
        let max_ns = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| {
            bucket_representative(i).max(self.min_ns).min(self.max_ns)
        });
        let min_ns = buckets.iter().position(|&c| c > 0).map_or(u64::MAX, |i| {
            bucket_representative(i).max(self.min_ns).min(max_ns)
        });
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.saturating_sub(prev.sum_ns),
            min_ns,
            max_ns,
            saturated: self.saturated.saturating_sub(prev.saturated),
        }
    }

    /// Resolve percentiles over the snapshot's buckets, each clamped to
    /// `[min_ns, max_ns]` (a bucket's geometric mean can lie above or
    /// below every sample in it).
    ///
    /// An empty snapshot (a window that recorded no samples — e.g. a
    /// query-less barrier window under a delete-heavy scenario) summarizes
    /// to all-zero fields, never to a bucket bound or the saturated top
    /// bucket's representative.
    pub fn summarize(&self) -> LatencySummary {
        let total = self.count();
        if total == 0 {
            return LatencySummary::default();
        }
        let percentile = |q: f64| -> u64 {
            let target = (q * total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // The max clamp applies last: a snapshot racing a
                    // first recording may read `min_ns` still unset.
                    return bucket_representative(i).max(self.min_ns).min(self.max_ns);
                }
            }
            self.max_ns
        };
        LatencySummary {
            count: total,
            mean_ns: self.sum_ns / total,
            p50_ns: percentile(0.50),
            p90_ns: percentile(0.90),
            p99_ns: percentile(0.99),
            max_ns: self.max_ns,
        }
    }
}

/// Frozen histogram view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Median (geometric mean of the containing bucket's bounds), ns.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean_ns as f64 / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

/// Shape version of [`StatsReport::to_json`]; the history is in the
/// [`StatsReport`] docs.
const SCHEMA_VERSION: u32 = 7;

/// What one registry entry's kind expands to: its storage and report
/// types, how a report reads it, how many saturated histogram samples it
/// holds, its JSON entry, and its schema-table row and keys. Counters and
/// gauges are both one `AtomicU64` (a gauge is stored, a counter bumped);
/// a histogram's JSON is written by hand, since each has its own shape.
macro_rules! stat_kind {
    (store histogram) => { LatencyHistogram };
    (store $scalar:ident) => { AtomicU64 };
    (report histogram) => { LatencySummary };
    (report $scalar:ident) => { u64 };
    (read histogram $h:expr) => { $h.summarize() };
    (read $scalar:ident $c:expr) => { $c.load(Ordering::Relaxed) };
    (saturated histogram $h:expr) => { $h.saturated_samples() };
    (saturated $scalar:ident $c:expr) => { 0 };
    (json histogram $o:ident $field:ident $v:expr) => {};
    (json $scalar:ident $o:ident $field:ident $v:expr) => {
        $o.entry(stringify!($field), $v);
    };
    (name counter) => { "counter" };
    (name gauge) => { "gauge" };
    (name histogram) => { "histogram" };
    // A scalar's JSON key is its field name; a histogram lists its keys.
    (keys $field:ident) => { [stringify!($field)] };
    (keys $field:ident [$($key:literal),+]) => { [$($key),+] };
    (row $kind:ident $field:ident $help:literal) => {
        concat!("| `", stringify!($field), "` | ", stat_kind!(name $kind), " | ", $help, " |")
    };
    (row $kind:ident $field:ident [$key0:literal $(, $key:literal)*] $help:literal) => {
        concat!(
            "| `", $key0, "`", $(", `", $key, "`",)*
            " | ", stat_kind!(name $kind), " | ", $help, " |"
        )
    };
}

/// Expands the stats registry (invoked once, below) into [`ServeStats`],
/// [`StatsReport`], [`ShardStats`] and [`ShardCounts`], the report's
/// reads, the scalar entries of [`StatsReport::to_json`] and the schema
/// table on [`StatsReport`].
///
/// * `serve` lists every [`ServeStats`] field in field order as
///   `kind field [keys]: "help";` under its extra `///` docs. The help is
///   the field's first doc line and its schema-table meaning.
/// * `shard` lists every [`ShardStats`] counter in field order.
/// * `json_only` documents the keys `to_json` writes by hand: the
///   version, per-shard arrays, derived ratios and quality windows.
macro_rules! stats_registry {
    (
        serve {$(
            $(#[doc = $doc:literal])*
            $kind:ident $field:ident $([$key0:literal $(, $key:literal)*])?: $help:literal;
        )*}
        shard {$(
            $(#[doc = $sdoc:literal])*
            $sfield:ident;
        )*}
        json_only {$(
            [$jkey0:literal $(, $jkey:literal)*] $jkind:ident: $jhelp:literal;
        )*}
    ) => {
        /// Shared counters for one service instance. All fields are
        /// updated with relaxed atomics; a [`StatsReport`] is a consistent
        /// enough point-in-time read for reporting.
        #[derive(Debug)]
        pub struct ServeStats {
            $(
                #[doc = $help]
                $(#[doc = $doc])*
                pub $field: stat_kind!(store $kind),
            )*
            /// Roster-quality scores recorded by an external harness (one
            /// entry per scored publish window; empty unless a driver
            /// scores the run).
            pub quality_windows: Mutex<Vec<QualityWindow>>,
            /// Per-shard counters (length = shard count).
            pub shards: Vec<ShardStats>,
        }

        /// Plain point-in-time view of [`ServeStats`].
        ///
        /// # JSON schema
        ///
        /// [`to_json`](Self::to_json) renders one flat object, versioned
        /// by `schema_version` (history below the table). Counters are
        /// monotone totals over the service life; a gauge holds its last
        /// written value. Latencies are nanoseconds unless the key says
        /// otherwise; percentiles resolve to the geometric mean of the
        /// containing log₂ bucket, clamped to the recorded min and max.
        ///
        /// | key | kind | meaning |
        /// |-----|------|---------|
        $(#[doc = concat!(
            "| `", $jkey0, "`", $(", `", $jkey, "`",)*
            " | ", stringify!($jkind), " | ", $jhelp, " |"
        )])*
        $(#[doc = stat_kind!(row $kind $field $([$key0 $(, $key)*])? $help)])*
        ///
        /// Schema history: version 2 added `attribution_per_shard`,
        /// `trace_dropped_records` and `saturated_samples`; 3 split the
        /// per-shard barrier wait into `barrier_arrive_us` /
        /// `barrier_depart_us` and added the publish-collect counters
        /// (`boundary_hists_*`, `collect_bytes`, `publish_failures`); 4
        /// added `dirty_vertices`, `dirty_span`, `dirty_fraction` and
        /// `quality_per_window`; 5 added `hub_pulls`, `damped_deferrals`,
        /// `max_degree_delta` and `repartition_vertices_moved`; 6 added
        /// `boundary_edges_merged` / `boundary_edges_total`; 7 dropped
        /// `repartition_vertices_moved`, which repeated
        /// `vertices_migrated`.
        #[derive(Clone, Debug, Default)]
        pub struct StatsReport {
            $(
                #[doc = $help]
                $(#[doc = $doc])*
                pub $field: stat_kind!(report $kind),
            )*
            /// Snapshots published (== `snapshots.count`, kept for
            /// readability).
            pub snapshots_published: u64,
            /// Externally-scored publish windows, in recording order
            /// (empty unless a quality harness scored the run).
            pub quality_per_window: Vec<QualityWindow>,
            /// Histogram samples (summed over every histogram in the
            /// report) that clamped into the top bucket instead of landing
            /// in a real one.
            pub saturated_samples: u64,
            /// Per-shard routed-edit, repair, and work/wait attribution
            /// counts.
            pub shards: Vec<ShardCounts>,
        }

        /// Every top-level key [`StatsReport::to_json`] documents, one
        /// slice per schema-table row.
        #[cfg(test)]
        const SCHEMA_KEYS: &[&[&str]] = &[
            $(&[$jkey0 $(, $jkey)*],)*
            $(&stat_kind!(keys $field $([$key0 $(, $key)*])?),)*
        ];

        impl ServeStats {
            /// Counters for a service with `shards` maintenance shards
            /// (≥ 1).
            pub fn with_shards(shards: usize) -> Self {
                Self {
                    $($field: Default::default(),)*
                    quality_windows: Mutex::new(Vec::new()),
                    shards: (0..shards.max(1)).map(|_| ShardStats::default()).collect(),
                }
            }

            /// Point-in-time report.
            pub fn report(&self) -> StatsReport {
                let mut report = StatsReport {
                    $($field: stat_kind!(read $kind self.$field),)*
                    snapshots_published: 0,
                    quality_per_window: self
                        .quality_windows
                        .lock()
                        .expect("quality window lock poisoned")
                        .clone(),
                    saturated_samples: [$(stat_kind!(saturated $kind self.$field)),*]
                        .iter()
                        .sum(),
                    shards: self.shards.iter().map(ShardStats::counts).collect(),
                };
                report.snapshots_published = report.snapshots.count;
                report
            }
        }

        impl StatsReport {
            /// Write the registry's counter and gauge entries.
            fn scalar_json(&self, o: &mut JsonObject) {
                $(stat_kind!(json $kind o $field self.$field);)*
            }
        }

        /// Per-shard monotone counters (sharded maintenance only; a
        /// single-writer service has exactly one entry).
        #[derive(Debug, Default)]
        pub struct ShardStats {
            $($(#[doc = $sdoc])* pub $sfield: AtomicU64,)*
        }

        /// Plain point-in-time view of one shard's counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ShardCounts {
            $(
                #[doc = concat!("See [`ShardStats::", stringify!($sfield), "`].")]
                pub $sfield: u64,
            )*
        }

        impl ShardStats {
            fn counts(&self) -> ShardCounts {
                ShardCounts {
                    $($sfield: self.$sfield.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

stats_registry! {
    serve {
        histogram queries [
            "query_count", "query_mean_ns", "query_p50_ns", "query_p90_ns", "query_p99_ns",
            "query_max_ns"
        ]: "Query latency, all query kinds pooled.";
        /// Detection/publish cost is tracked separately in `snapshots`.
        histogram flushes ["flush_count", "flush_mean_ns", "flush_p50_ns", "flush_p99_ns"]:
            "Flush latency: net-batch resolution + incremental repair.";
        histogram snapshots [
            "snapshots_published", "snapshot_mean_ns", "snapshot_p50_ns", "snapshot_p99_ns"
        ]: "Snapshot publish latency: counter-read weight pass + thresholding + index \
            build + epoch swap; `snapshots_published` is its count.";
        histogram counters ["counter_mean_ns", "counter_p50_ns", "counter_p99_ns"]:
            "Per-flush **central** edge-weight counter upkeep (delete retirement + \
            slot-delta folding on the maintenance thread); empty at `shards > 1`, where \
            the mesh workers own upkeep and report it in `upkeep_per_shard`.";
        counter edits_enqueued: "Edit operations accepted into the ingestion queue.";
        counter edits_applied: "Edit operations that survived net resolution and hit the graph.";
        counter edits_rejected:
            "Edit operations dropped as no-ops (duplicate insert, absent delete, self-loop).";
        counter batches_flushed: "Micro-batches flushed into the maintenance engine.";
        counter slots_repaired:
            "Label slots rewritten by Correction Propagation across all flushes (Σ η).";
        counter slot_deltas_net:
            "Net slot deltas folded into the edge-weight counters (after intra-flush \
            compaction; ≤ `slots_repaired`).";
        counter barriers: "Barriers honored.";
        counter exchange_rounds: "Mesh boundary-exchange rounds (0 under a single writer).";
        counter boundary_msgs: "Envelopes that crossed a shard boundary.";
        counter boundary_hists_shipped:
            "Boundary-vertex histograms actually shipped by publish collects (dirty diffs \
            only; ≤ `boundary_hists_total`).";
        counter boundary_hists_total:
            "Boundary-vertex histograms a ship-everything collect would have sent (Σ \
            boundary vertices over all collects, the dirty-diff savings denominator).";
        /// `boundary_hists_shipped` never exceeds this: the coherence
        /// invariant the CI smoke gates.
        counter boundary_dirty_marked:
            "Boundary vertices whose histogram was dirty (changed since last ship, or \
            never shipped) at collect time.";
        counter collect_bytes:
            "Approximate payload bytes of publish-collect replies (interior counter \
            triples + shipped histograms).";
        counter boundary_edges_merged:
            "Cut edges whose weight numerator publish assembly actually merged from the \
            two endpoint histograms: new to the coordinator's memo, or with an endpoint \
            re-shipped since (≤ `boundary_edges_total`).";
        counter boundary_edges_total:
            "Cut edges publish assembly walked (Σ cut edges over all mesh publishes, \
            what a memo-less assembly would merge).";
        counter publish_failures:
            "Publishes abandoned because a shard worker died; the snapshot is skipped and \
            the epoch stays dirty.";
        counter channel_hops:
            "Channel sends spent on flush coordination and boundary delivery (commands, \
            replies, and peer batches all count 1 each).";
        /// Counted port-side, independently of `boundary_msgs`, as a
        /// cross-check.
        counter envelope_hops:
            "Σ over boundary envelopes of the channels each traversed: 1 per envelope \
            over the mailbox mesh, so this equals `boundary_msgs`.";
        histogram mailbox_depth ["mailbox_depth"]:
            "Inbox depth per delivering mesh round (envelopes one shard drained in one \
            round); JSON object `count`/`p50`/`p99`/`max`, raw counts.";
        histogram barrier_wait ["barrier_wait_us"]:
            "Wall time workers spent parked on the mesh round barrier, per shard per \
            flush; JSON object `count`/`mean`/`p50`/`p99`, microseconds.";
        gauge cut_edges: "Edges whose endpoints live on different shards.";
        gauge boundary_vertices: "Vertices with at least one off-shard neighbor.";
        counter repartitions: "Publish-time repartitions performed.";
        counter vertices_migrated: "Vertex rows migrated between shards by repartitions.";
        counter hub_pulls:
            "Forming hubs pulled (with their spoke frontiers) onto single shards by \
            hub-aware repartitions.";
        counter damped_deferrals:
            "Label deliveries parked by degree-capped cascade damping (muted-hub re-pick \
            reads, suppressed fetch replies, deferred cascade slots; 0 with damping off).";
        gauge max_degree_delta:
            "Largest net per-vertex degree gain in the window ending at the last publish \
            (the hub detector's input signal).";
        gauge mem_live_bytes:
            "Coordinator-resident live bytes (graph + label rows + counters, per the \
            engine's ownership split) at the last publish.";
        gauge mem_capacity_bytes: "Coordinator-resident reserved bytes at the last publish.";
        gauge mem_vertices: "Vertex count the memory gauges were sampled at.";
        gauge trace_dropped_records:
            "Flight-recorder records lost to ring overwrite (refreshed at each publish \
            while tracing is enabled; 0 when tracing is off).";
        /// Exact and run-to-run stable under the single writer. At
        /// `shards > 1` it is **schedule-dependent**: a vertex whose label
        /// changes and changes back within one flush counts as dirty or not
        /// depending on the order mesh envelopes arrive, so the count (and
        /// `dirty_fraction`) can move in the 4th significant digit from one
        /// run to the next. Rosters and weights stay bit-identical; treat the
        /// sharded value as approximate and gate it with a ceiling, never an
        /// exact pin.
        counter dirty_vertices:
            "Distinct vertices whose stored labels changed, summed over all non-empty \
            flushes (the dirty-region numerator).";
        counter dirty_span:
            "Σ over the same flushes of the vertex count at flush time (the dirty-region \
            denominator).";
    }
    shard {
        /// Per-vertex edit deltas routed to this shard.
        edits_routed;
        /// Label slots this shard repaired (Σ per-shard η).
        slots_repaired;
        /// Net slot deltas this shard folded into its own counter partition
        /// (shard-owned upkeep; 0 under the single writer, whose upkeep is
        /// central).
        upkeep_deltas;
        /// Wall nanoseconds this shard spent on its own counter upkeep.
        upkeep_ns;
        /// Wall nanoseconds this shard's worker spent actively processing
        /// commands (flush waves, exchange stepping, collects, migration),
        /// *excluding* barrier parks and counter upkeep.
        work_ns;
        /// Wall nanoseconds the worker spent blocked on its command sub-queue
        /// waiting for the coordinator (the "mailbox wait").
        mailbox_wait_ns;
        /// Wall nanoseconds the worker spent parked at mesh round barriers.
        barrier_wait_ns;
        /// Of `barrier_wait_ns`, the arrive phase: parked until the round's
        /// last participant arrived (straggler / load-imbalance cost).
        barrier_arrive_ns;
        /// Of `barrier_wait_ns`, the depart phase: between the leader's
        /// release and this worker resuming (wakeup/scheduling latency —
        /// dominates when workers outnumber cores).
        barrier_depart_ns;
        /// Gauge: total wall nanoseconds of the worker's command loop, set
        /// once at shutdown. `work + mailbox_wait + barrier_wait + upkeep`
        /// should account for ≥ 90% of it — the rest is loop bookkeeping.
        wall_ns;
    }
    json_only {
        ["schema_version"] version: "Shape version of this object; history below.";
        ["shards"] per_shard: "Maintenance shard count (1 = single writer).";
        ["shard_edits_routed"] per_shard: "Array: vertex deltas routed to each shard.";
        ["shard_slots_repaired"] per_shard: "Array: label slots each shard repaired.";
        ["upkeep_per_shard"] per_shard:
            "Object of arrays: per-shard `deltas` folded and wall `ns` of shard-owned \
            counter upkeep (zeros under the single writer, whose upkeep is central).";
        ["attribution_per_shard"] per_shard:
            "Object of per-shard arrays `work_us`, `barrier_wait_us`, \
            `barrier_arrive_us`, `barrier_depart_us`, `mailbox_wait_us`, `upkeep_us`, \
            `wall_us` and `coverage`, attributing each worker's wall time; \
            `barrier_wait_us` = arrive (waiting for stragglers) + depart \
            (release-to-resume latency); `coverage` is work + waits + upkeep over wall.";
        ["dirty_fraction"] derived:
            "`dirty_vertices` / `dirty_span`, the mean per-flush dirty fraction: near 1.0 \
            means incremental repair costs as much as a full recompute.";
        ["bytes_per_vertex"] derived: "`mem_capacity_bytes` / `mem_vertices`.";
        ["saturated_samples"] derived:
            "Histogram samples that clamped into the top log₂ bucket (≥ 2⁶³), across all \
            histograms.";
        ["quality_per_window"] windows:
            "Array of `{epoch, onmi, f1, omega}` objects a quality harness (`repro churn`) \
            recorded, scoring each published roster against a tracked ground-truth cover; \
            empty when the run is unscored.";
    }
}

impl ShardCounts {
    /// Fraction of the worker's wall time attributed to work, mailbox
    /// wait, barrier wait, or upkeep (0.0 before shutdown sets the wall
    /// gauge).
    pub fn attribution_coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let accounted = self.work_ns + self.mailbox_wait_ns + self.barrier_wait_ns + self.upkeep_ns;
        accounted as f64 / self.wall_ns as f64
    }
}

/// One externally-scored publish window: the published roster compared
/// against a tracked ground-truth cover. Recorded by bench drivers via
/// [`ServeStats::note_quality_window`]; the serve crate itself never
/// computes metric values (it has no dependency on `rslpa_metrics`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityWindow {
    /// Epoch of the snapshot that was scored.
    pub epoch: u64,
    /// Overlapping NMI of roster vs tracked cover, in `[0, 1]`.
    pub onmi: f64,
    /// Best-match average F1 (symmetrized), in `[0, 1]`.
    pub f1: f64,
    /// Omega index (chance-corrected pair agreement), ≤ 1.
    pub omega: f64,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

macro_rules! bump {
    ($field:expr) => {
        $field.fetch_add(1, Ordering::Relaxed)
    };
    ($field:expr, $n:expr) => {
        $field.fetch_add($n, Ordering::Relaxed)
    };
}

impl ServeStats {
    pub(crate) fn note_enqueued(&self) {
        bump!(self.edits_enqueued);
    }

    pub(crate) fn note_shard_flush(&self, shard: usize, edits_routed: u64, slots_repaired: u64) {
        let s = &self.shards[shard];
        bump!(s.edits_routed, edits_routed);
        bump!(s.slots_repaired, slots_repaired);
    }

    pub(crate) fn note_exchange(&self, rounds: u64, boundary_msgs: u64) {
        bump!(self.exchange_rounds, rounds);
        bump!(self.boundary_msgs, boundary_msgs);
    }

    pub(crate) fn note_channel_hops(&self, hops: u64) {
        bump!(self.channel_hops, hops);
    }

    pub(crate) fn note_envelope_hops(&self, hops: u64) {
        bump!(self.envelope_hops, hops);
    }

    /// Fold one worker's per-flush mesh accounting into the histograms.
    pub(crate) fn note_mesh(&self, depths: &[u64], barrier_wait: Duration) {
        for &d in depths {
            self.mailbox_depth.record_value(d);
        }
        self.barrier_wait.record(barrier_wait);
    }

    /// One shard's own counter upkeep for one wave of one flush.
    /// Deliberately does **not** record into the per-flush `counters`
    /// histogram — that histogram means "central upkeep per flush", and
    /// mixing per-shard per-wave samples in would silently change its
    /// denominator. Shard-owned upkeep is read from the
    /// per-shard `upkeep_deltas` / `upkeep_ns` counters instead.
    pub(crate) fn note_shard_upkeep(&self, shard: usize, net_deltas: u64, took: Duration) {
        let s = &self.shards[shard];
        bump!(s.upkeep_deltas, net_deltas);
        bump!(
            s.upkeep_ns,
            took.as_nanos().min(u128::from(u64::MAX)) as u64
        );
        bump!(self.slot_deltas_net, net_deltas);
    }

    /// One worker command's active-processing and barrier-park time, the
    /// park split into its arrive (waiting for stragglers) and depart
    /// (release-to-resume wakeup latency) phases. The `barrier_wait_ns`
    /// total stays their sum so attribution coverage is unchanged.
    pub(crate) fn note_shard_cmd(
        &self,
        shard: usize,
        work: Duration,
        barrier_arrive: Duration,
        barrier_depart: Duration,
    ) {
        let ns = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let s = &self.shards[shard];
        bump!(s.work_ns, ns(work));
        bump!(s.barrier_wait_ns, ns(barrier_arrive) + ns(barrier_depart));
        bump!(s.barrier_arrive_ns, ns(barrier_arrive));
        bump!(s.barrier_depart_ns, ns(barrier_depart));
    }

    /// One worker's publish-collect ship accounting: histograms shipped
    /// (dirty diff), boundary total (ship-everything baseline), dirty
    /// marks consumed, and approximate reply payload bytes.
    pub(crate) fn note_collect(&self, shipped: u64, boundary_total: u64, dirty: u64, bytes: u64) {
        bump!(self.boundary_hists_shipped, shipped);
        bump!(self.boundary_hists_total, boundary_total);
        bump!(self.boundary_dirty_marked, dirty);
        bump!(self.collect_bytes, bytes);
    }

    /// One mesh publish's assembly: cut edges merged afresh, out of the
    /// cut edges walked.
    pub(crate) fn note_boundary_merge(&self, merged: u64, total: u64) {
        bump!(self.boundary_edges_merged, merged);
        bump!(self.boundary_edges_total, total);
    }

    /// A publish was abandoned because a shard worker died.
    pub(crate) fn note_publish_failure(&self) {
        bump!(self.publish_failures);
    }

    /// Time one worker spent blocked on its command sub-queue.
    pub(crate) fn note_shard_mailbox_wait(&self, shard: usize, wait: Duration) {
        bump!(
            self.shards[shard].mailbox_wait_ns,
            wait.as_nanos().min(u128::from(u64::MAX)) as u64
        );
    }

    /// Total wall time of a worker's command loop, set once at shutdown.
    pub(crate) fn set_shard_wall(&self, shard: usize, wall: Duration) {
        self.shards[shard].wall_ns.store(
            wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    pub(crate) fn set_trace_dropped(&self, dropped: u64) {
        self.trace_dropped_records.store(dropped, Ordering::Relaxed);
    }

    pub(crate) fn set_mem_gauges(&self, live_bytes: u64, capacity_bytes: u64, vertices: u64) {
        self.mem_live_bytes.store(live_bytes, Ordering::Relaxed);
        self.mem_capacity_bytes
            .store(capacity_bytes, Ordering::Relaxed);
        self.mem_vertices.store(vertices, Ordering::Relaxed);
    }

    pub(crate) fn set_boundary_gauges(&self, cut_edges: u64, boundary_vertices: u64) {
        self.cut_edges.store(cut_edges, Ordering::Relaxed);
        self.boundary_vertices
            .store(boundary_vertices, Ordering::Relaxed);
    }

    pub(crate) fn note_repartition(&self, moved: u64) {
        bump!(self.repartitions);
        bump!(self.vertices_migrated, moved);
    }

    /// Hubs nominated for this publish's repartition (0 most windows).
    pub(crate) fn note_hub_pulls(&self, pulls: u64) {
        bump!(self.hub_pulls, pulls);
    }

    /// Cascade deliveries deferred by degree-capped damping in one flush.
    pub(crate) fn note_damped_deferrals(&self, deferred: u64) {
        bump!(self.damped_deferrals, deferred);
    }

    /// Gauge: the hub-detector's max net degree delta for the window
    /// ending at this publish.
    pub(crate) fn set_max_degree_delta(&self, delta: u64) {
        self.max_degree_delta.store(delta, Ordering::Relaxed);
    }

    pub(crate) fn note_flush(&self, applied: u64, rejected: u64, eta: u64, took: Duration) {
        bump!(self.batches_flushed);
        bump!(self.edits_applied, applied);
        bump!(self.edits_rejected, rejected);
        bump!(self.slots_repaired, eta);
        self.flushes.record(took);
    }

    pub(crate) fn note_snapshot(&self, took: Duration) {
        self.snapshots.record(took);
    }

    pub(crate) fn note_counters(&self, net_deltas: u64, took: Duration) {
        bump!(self.slot_deltas_net, net_deltas);
        self.counters.record(took);
    }

    pub(crate) fn note_barrier(&self) {
        bump!(self.barriers);
    }

    /// One non-empty flush's dirty region: `dirty` distinct value-changed
    /// vertices out of `span` vertices present at flush time.
    pub(crate) fn note_dirty_region(&self, dirty: u64, span: u64) {
        bump!(self.dirty_vertices, dirty);
        bump!(self.dirty_span, span);
    }

    /// Record one externally-scored publish window (roster vs tracked
    /// ground-truth cover). Called by bench/CLI harnesses, not by the
    /// serve loop itself.
    pub fn note_quality_window(&self, window: QualityWindow) {
        self.quality_windows
            .lock()
            .expect("quality window lock poisoned")
            .push(window);
    }
}

impl StatsReport {
    /// Coordinator-resident reserved bytes per vertex at the last publish
    /// (0.0 before the first publish).
    pub fn bytes_per_vertex(&self) -> f64 {
        if self.mem_vertices == 0 {
            0.0
        } else {
            self.mem_capacity_bytes as f64 / self.mem_vertices as f64
        }
    }

    /// Mean per-flush dirty fraction: distinct value-changed vertices
    /// over the vertex span of all non-empty flushes (0.0 before the
    /// first flush). This is the incrementality signal — a fraction
    /// approaching 1.0 means repair is touching the whole graph and a
    /// full recompute would cost the same.
    pub fn dirty_fraction(&self) -> f64 {
        if self.dirty_span == 0 {
            0.0
        } else {
            self.dirty_vertices as f64 / self.dirty_span as f64
        }
    }

    /// Publish-collect ship ratio: boundary histograms actually shipped
    /// over the ship-everything baseline (0.0 when no collect ran —
    /// single writer).
    pub fn ship_ratio(&self) -> f64 {
        if self.boundary_hists_total == 0 {
            0.0
        } else {
            self.boundary_hists_shipped as f64 / self.boundary_hists_total as f64
        }
    }

    /// Publish-assembly merge ratio: cut edges merged afresh over the cut
    /// edges walked (0.0 when no mesh publish ran — single writer).
    pub fn boundary_merge_ratio(&self) -> f64 {
        if self.boundary_edges_total == 0 {
            0.0
        } else {
            self.boundary_edges_merged as f64 / self.boundary_edges_total as f64
        }
    }

    /// Render as one JSON object (no external deps; every value is a
    /// number, an array or an object, so nothing needs escaping). The keys
    /// are documented in the [`StatsReport`] schema table.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.entry("schema_version", SCHEMA_VERSION);
        self.scalar_json(&mut o);
        let per_shard = |f: fn(&ShardCounts) -> u64| json_array(self.shards.iter().map(f));
        // Nanosecond counters exported as microseconds, one decimal.
        let per_shard_us = |f: fn(&ShardCounts) -> u64| {
            json_array(
                self.shards
                    .iter()
                    .map(|s| format!("{:.1}", f(s) as f64 / 1e3)),
            )
        };
        let mut upkeep = JsonObject::new();
        upkeep
            .entry("deltas", per_shard(|s| s.upkeep_deltas))
            .entry("ns", per_shard(|s| s.upkeep_ns));
        let mut attribution = JsonObject::new();
        attribution
            .entry("work_us", per_shard_us(|s| s.work_ns))
            .entry("barrier_wait_us", per_shard_us(|s| s.barrier_wait_ns))
            .entry("barrier_arrive_us", per_shard_us(|s| s.barrier_arrive_ns))
            .entry("barrier_depart_us", per_shard_us(|s| s.barrier_depart_ns))
            .entry("mailbox_wait_us", per_shard_us(|s| s.mailbox_wait_ns))
            .entry("upkeep_us", per_shard_us(|s| s.upkeep_ns))
            .entry("wall_us", per_shard_us(|s| s.wall_ns))
            .entry(
                "coverage",
                json_array(
                    self.shards
                        .iter()
                        .map(|s| format!("{:.3}", s.attribution_coverage())),
                ),
            );
        let quality = json_array(self.quality_per_window.iter().map(|q| {
            format!(
                "{{\"epoch\":{},\"onmi\":{:.6},\"f1\":{:.6},\"omega\":{:.6}}}",
                q.epoch, q.onmi, q.f1, q.omega
            )
        }));
        let mut mailbox = JsonObject::new();
        let depth = &self.mailbox_depth;
        mailbox
            .entry("count", depth.count)
            .entry("p50", depth.p50_ns)
            .entry("p99", depth.p99_ns)
            .entry("max", depth.max_ns);
        let mut barrier = JsonObject::new();
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        barrier
            .entry("count", self.barrier_wait.count)
            .entry("mean", us(self.barrier_wait.mean_ns))
            .entry("p50", us(self.barrier_wait.p50_ns))
            .entry("p99", us(self.barrier_wait.p99_ns));
        let (q, f, c, s) = (
            &self.queries,
            &self.flushes,
            &self.counters,
            &self.snapshots,
        );
        o.entry("shards", self.shards.len())
            .entry("shard_edits_routed", per_shard(|s| s.edits_routed))
            .entry("shard_slots_repaired", per_shard(|s| s.slots_repaired))
            .entry("upkeep_per_shard", upkeep.finish())
            .entry("attribution_per_shard", attribution.finish())
            .entry("dirty_fraction", format!("{:.6}", self.dirty_fraction()))
            .entry(
                "bytes_per_vertex",
                format!("{:.2}", self.bytes_per_vertex()),
            )
            .entry("saturated_samples", self.saturated_samples)
            .entry("quality_per_window", quality)
            .entry("mailbox_depth", mailbox.finish())
            .entry("barrier_wait_us", barrier.finish())
            .entry("query_count", q.count)
            .entry("query_mean_ns", q.mean_ns)
            .entry("query_p50_ns", q.p50_ns)
            .entry("query_p90_ns", q.p90_ns)
            .entry("query_p99_ns", q.p99_ns)
            .entry("query_max_ns", q.max_ns)
            .entry("flush_count", f.count)
            .entry("flush_mean_ns", f.mean_ns)
            .entry("flush_p50_ns", f.p50_ns)
            .entry("flush_p99_ns", f.p99_ns)
            .entry("counter_mean_ns", c.mean_ns)
            .entry("counter_p50_ns", c.p50_ns)
            .entry("counter_p99_ns", c.p99_ns)
            .entry("snapshots_published", self.snapshots_published)
            .entry("snapshot_mean_ns", s.mean_ns)
            .entry("snapshot_p50_ns", s.p50_ns)
            .entry("snapshot_p99_ns", s.p99_ns);
        o.finish()
    }
}

/// A JSON object under construction; values are written verbatim.
struct JsonObject(String);

impl JsonObject {
    fn new() -> Self {
        Self(String::from("{"))
    }

    fn entry(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        write!(self.0, "\"{key}\":{value}").expect("writing to a String cannot fail");
        self
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// `[a,b,..]` of already-formatted JSON values.
fn json_array<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    let items: Vec<String> = items.map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "edits: {} applied, {} rejected of {} enqueued in {} flushes",
            self.edits_applied, self.edits_rejected, self.edits_enqueued, self.batches_flushed
        )?;
        writeln!(
            f,
            "snapshots: {} published, {} barriers, {} slots repaired ({} net counter deltas)",
            self.snapshots_published, self.barriers, self.slots_repaired, self.slot_deltas_net
        )?;
        if self.shards.len() > 1 {
            writeln!(
                f,
                "shards: {} ({} exchange rounds, {} boundary msgs, {} cut edges, {} boundary vertices, {} migrated over {} repartitions)",
                self.shards.len(),
                self.exchange_rounds,
                self.boundary_msgs,
                self.cut_edges,
                self.boundary_vertices,
                self.vertices_migrated,
                self.repartitions,
            )?;
            writeln!(
                f,
                "coordination: {} channel hops, {} envelope hops; mailbox depth p50/p99 {}/{}; barrier wait p99 {:.1}us",
                self.channel_hops,
                self.envelope_hops,
                self.mailbox_depth.p50_ns,
                self.mailbox_depth.p99_ns,
                self.barrier_wait.p99_ns as f64 / 1e3,
            )?;
            if self.boundary_hists_total > 0 {
                writeln!(
                    f,
                    "publish collect: {} of {} boundary hists shipped ({} dirty-marked), ~{:.1} KiB; {} publish failures",
                    self.boundary_hists_shipped,
                    self.boundary_hists_total,
                    self.boundary_dirty_marked,
                    self.collect_bytes as f64 / 1024.0,
                    self.publish_failures,
                )?;
                writeln!(
                    f,
                    "publish assembly: {} of {} cut edges merged ({:.1}%)",
                    self.boundary_edges_merged,
                    self.boundary_edges_total,
                    self.boundary_merge_ratio() * 100.0,
                )?;
            }
            for (i, s) in self.shards.iter().enumerate() {
                writeln!(
                    f,
                    "  shard {i}: {} edits routed, {} slots repaired, {} upkeep deltas in {:.2}ms",
                    s.edits_routed,
                    s.slots_repaired,
                    s.upkeep_deltas,
                    s.upkeep_ns as f64 / 1e6,
                )?;
                if s.wall_ns > 0 {
                    writeln!(
                        f,
                        "    attribution: work {:.2}ms, barrier {:.2}ms \
                         (arrive {:.2} / depart {:.2}), mailbox {:.2}ms, \
                         upkeep {:.2}ms of {:.2}ms wall ({:.1}% accounted)",
                        s.work_ns as f64 / 1e6,
                        s.barrier_wait_ns as f64 / 1e6,
                        s.barrier_arrive_ns as f64 / 1e6,
                        s.barrier_depart_ns as f64 / 1e6,
                        s.mailbox_wait_ns as f64 / 1e6,
                        s.upkeep_ns as f64 / 1e6,
                        s.wall_ns as f64 / 1e6,
                        s.attribution_coverage() * 100.0,
                    )?;
                }
            }
        }
        if self.mem_vertices > 0 {
            writeln!(
                f,
                "memory: {:.1} MiB live / {:.1} MiB reserved over {} vertices ({:.1} bytes/vertex)",
                self.mem_live_bytes as f64 / (1024.0 * 1024.0),
                self.mem_capacity_bytes as f64 / (1024.0 * 1024.0),
                self.mem_vertices,
                self.bytes_per_vertex(),
            )?;
        }
        writeln!(f, "queries: {}", self.queries)?;
        writeln!(f, "flushes: {}", self.flushes)?;
        writeln!(f, "counter upkeep: {}", self.counters)?;
        write!(f, "publishes: {}", self.snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summarize(), LatencySummary::default());
    }

    #[test]
    fn percentiles_are_bucket_geometric_means() {
        let h = LatencyHistogram::new();
        // Bucket 7 = [64, 128); the 70 ns sample keeps the bucket's
        // geometric mean inside the recorded [min, max].
        h.record(Duration::from_nanos(70));
        for _ in 0..98 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_micros(100)); // ~1e5 ns
        let s = h.summarize();
        assert_eq!(s.count, 100);
        // √(64 · 128) = √8192 ≈ 90.51 → 91, not the 127 upper bound.
        assert_eq!(s.p50_ns, 91);
        assert_eq!(s.p99_ns, 91);
        assert!(s.max_ns >= 100_000);
        assert!(s.mean_ns > 100 && s.mean_ns < 2_000);
    }

    #[test]
    fn single_sample_quantiles_never_exceed_the_recorded_max() {
        // 70 ns lands in bucket 7 = [64, 128), whose geometric mean (91)
        // lies above the only sample ever recorded.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(70));
        let s = h.summarize();
        assert_eq!(s.max_ns, 70);
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (70, 70, 70));
    }

    #[test]
    fn quantiles_never_fall_below_the_recorded_min() {
        // 100 and 120 ns both land in bucket 7 = [64, 128), whose
        // geometric mean (91) lies below every sample ever recorded.
        let h = LatencyHistogram::new();
        let t0 = h.snapshot();
        for ns in [100, 120] {
            h.record(Duration::from_nanos(ns));
        }
        let s = h.summarize();
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (100, 100, 100));
        assert_eq!(s.max_ns, 120);
        // An interval view is bounded below by the cumulative min too.
        let w = h.snapshot().delta_since(&t0).summarize();
        assert!(w.p50_ns >= 100, "interval p50 = {}", w.p50_ns);
        assert!(w.p50_ns <= w.max_ns, "interval p50 {} > max", w.p50_ns);
    }

    #[test]
    fn interval_quantiles_never_exceed_the_recorded_max() {
        // The window's true max is unknown, but the cumulative max bounds
        // it: neither the interval max nor any interval percentile may
        // report more than the largest sample ever recorded.
        let h = LatencyHistogram::new();
        let t0 = h.snapshot();
        for ns in [66, 68, 70] {
            h.record(Duration::from_nanos(ns));
        }
        let w = h.snapshot().delta_since(&t0).summarize();
        assert_eq!(w.count, 3);
        assert_eq!(w.max_ns, 70);
        assert_eq!((w.p50_ns, w.p90_ns, w.p99_ns), (70, 70, 70));
    }

    #[test]
    fn bucket_representatives_are_pinned() {
        // Bucket 0 holds only zero samples; bucket i spans [2^(i-1), 2^i).
        assert_eq!(bucket_representative(0), 0);
        assert_eq!(bucket_representative(1), 1); // √(1·2) ≈ 1.41 → 1
        assert_eq!(bucket_representative(7), 91); // √(64·128) ≈ 90.51
        assert_eq!(bucket_representative(11), 1448); // √(1024·2048)

        // 1.1 and 2 µs samples land in bucket 11 → 1448 ns, within √2 of
        // either.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1_100));
        h.record(Duration::from_nanos(2_000));
        assert_eq!(h.summarize().p50_ns, 1448);
        // The old upper-bound rule for bucket 21 reported 2²¹−1 exactly;
        // the geometric mean is √(2²⁰·2²¹) = 2^20.5.
        assert_eq!(bucket_representative(21), 1_482_910);
    }

    #[test]
    fn per_shard_counters_roll_up_into_the_report() {
        let stats = ServeStats::with_shards(3);
        stats.note_shard_flush(0, 5, 40);
        stats.note_shard_flush(2, 7, 11);
        stats.note_shard_flush(2, 1, 2);
        stats.note_exchange(4, 9);
        stats.set_boundary_gauges(17, 6);
        let r = stats.report();
        assert_eq!(r.shards.len(), 3);
        assert_eq!(r.shards[0].edits_routed, 5);
        assert_eq!(r.shards[1], ShardCounts::default());
        assert_eq!(r.shards[2].slots_repaired, 13);
        assert_eq!((r.exchange_rounds, r.boundary_msgs), (4, 9));
        assert_eq!((r.cut_edges, r.boundary_vertices), (17, 6));
        let json = r.to_json();
        assert!(json.contains("\"shards\":3"));
        assert!(json.contains("\"shard_edits_routed\":[5,0,8]"));
        assert!(json.contains("\"shard_slots_repaired\":[40,0,13]"));
        assert!(json.contains("\"boundary_msgs\":9"));
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        let s = h.summarize();
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let stats = ServeStats::default();
        stats.note_enqueued();
        stats.note_flush(1, 0, 5, Duration::from_micros(3));
        let json = stats.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"edits_applied\":1"));
        assert!(json.contains("\"slots_repaired\":5"));
    }

    #[test]
    fn two_intervals_sum_to_the_cumulative_counts() {
        let h = LatencyHistogram::new();
        let t0 = h.snapshot();
        for i in 0..100u64 {
            h.record(Duration::from_nanos(50 + i));
        }
        let t1 = h.snapshot();
        for _ in 0..40 {
            h.record(Duration::from_micros(10));
        }
        let t2 = h.snapshot();

        let w1 = t1.delta_since(&t0);
        let w2 = t2.delta_since(&t1);
        assert_eq!(w1.count(), 100);
        assert_eq!(w2.count(), 40);
        assert_eq!(w1.count() + w2.count(), t2.count());
        // Bucket-wise, the two windows reassemble the cumulative snapshot.
        assert_eq!(
            w2.delta_since(&HistogramSnapshot::default()).count() + w1.count(),
            h.count()
        );
        // The windows have distinct percentile profiles: window 1 is all
        // ~100ns samples, window 2 all ~10µs samples; cumulative p50 sits
        // in window 1's range.
        let s1 = w1.summarize();
        let s2 = w2.summarize();
        assert!(s1.p50_ns < 200, "window 1 p50 = {}", s1.p50_ns);
        assert!(s2.p50_ns > 5_000, "window 2 p50 = {}", s2.p50_ns);
        assert_eq!(s2.p50_ns, s2.max_ns, "interval max is bucket-resolved");
        let cum = t2.summarize();
        assert_eq!(cum.count, 140);
        assert!(cum.p50_ns < 200);
    }

    #[test]
    fn empty_interval_summarizes_to_zeros() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        let snap = h.snapshot();
        let w = snap.delta_since(&snap);
        assert_eq!(w.count(), 0);
        assert_eq!(w.summarize(), LatencySummary::default());
    }

    #[test]
    fn top_bucket_clamps_are_counted_as_saturated() {
        let h = LatencyHistogram::new();
        h.record_value(100);
        assert_eq!(h.saturated_samples(), 0);
        // Values ≥ 2^63 overflow the last real bucket and clamp.
        h.record_value(u64::MAX);
        h.record_value(1u64 << 63);
        assert_eq!(h.saturated_samples(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.snapshot().saturated_samples(), 2);

        let stats = ServeStats::default();
        stats.queries.record_value(u64::MAX);
        stats.flushes.record_value(u64::MAX);
        let r = stats.report();
        assert_eq!(r.saturated_samples, 2);
        assert!(r.to_json().contains("\"saturated_samples\":2"));
    }

    #[test]
    fn attribution_rolls_into_json_and_coverage() {
        let stats = ServeStats::with_shards(2);
        stats.note_shard_cmd(
            0,
            Duration::from_micros(600),
            Duration::from_micros(100),
            Duration::from_micros(50),
        );
        stats.note_shard_mailbox_wait(0, Duration::from_micros(200));
        stats.note_shard_upkeep(0, 3, Duration::from_micros(40));
        stats.set_shard_wall(0, Duration::from_micros(1_000));
        let r = stats.report();
        let s0 = &r.shards[0];
        assert_eq!(s0.work_ns, 600_000);
        assert_eq!(s0.barrier_wait_ns, 150_000);
        assert_eq!(s0.barrier_arrive_ns, 100_000);
        assert_eq!(s0.barrier_depart_ns, 50_000);
        assert_eq!(s0.mailbox_wait_ns, 200_000);
        assert_eq!(s0.wall_ns, 1_000_000);
        assert!((s0.attribution_coverage() - 0.99).abs() < 1e-9);
        assert_eq!(r.shards[1].attribution_coverage(), 0.0);
        let json = r.to_json();
        assert!(json.starts_with("{\"schema_version\":7,"));
        assert!(json.contains("\"attribution_per_shard\":{\"work_us\":[600.0,0.0]"));
        assert!(json.contains("\"barrier_wait_us\":[150.0,0.0]"));
        assert!(json.contains("\"barrier_arrive_us\":[100.0,0.0]"));
        assert!(json.contains("\"barrier_depart_us\":[50.0,0.0]"));
        assert!(json.contains("\"mailbox_wait_us\":[200.0,0.0]"));
        assert!(json.contains("\"wall_us\":[1000.0,0.0]"));
        assert!(json.contains("\"coverage\":[0.990,0.000]"));
        assert!(json.contains("\"trace_dropped_records\":0"));
    }

    #[test]
    fn hub_and_damping_counters_roll_into_json() {
        let stats = ServeStats::with_shards(2);
        stats.note_hub_pulls(3);
        stats.note_damped_deferrals(40);
        stats.note_damped_deferrals(2);
        stats.set_max_degree_delta(97);
        stats.set_max_degree_delta(12); // gauge: last write wins
        stats.note_repartition(7);
        let r = stats.report();
        assert_eq!(r.hub_pulls, 3);
        assert_eq!(r.damped_deferrals, 42);
        assert_eq!(r.max_degree_delta, 12);
        let json = r.to_json();
        assert!(json.contains("\"hub_pulls\":3"));
        assert!(json.contains("\"damped_deferrals\":42"));
        assert!(json.contains("\"max_degree_delta\":12"));
        assert!(json.contains("\"vertices_migrated\":7"));
        assert!(!json.contains("repartition_vertices_moved"));
    }

    #[test]
    fn boundary_merge_counters_roll_into_json() {
        let stats = ServeStats::with_shards(2);
        assert_eq!(stats.report().boundary_merge_ratio(), 0.0);
        stats.note_boundary_merge(30, 120);
        stats.note_boundary_merge(0, 120);
        let r = stats.report();
        assert_eq!((r.boundary_edges_merged, r.boundary_edges_total), (30, 240));
        assert!((r.boundary_merge_ratio() - 0.125).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"boundary_edges_merged\":30"));
        assert!(json.contains("\"boundary_edges_total\":240"));
    }

    #[test]
    fn collect_counters_roll_into_json() {
        let stats = ServeStats::with_shards(2);
        stats.note_collect(3, 40, 5, 2_048);
        stats.note_collect(1, 40, 1, 512);
        stats.note_publish_failure();
        let r = stats.report();
        assert_eq!(r.boundary_hists_shipped, 4);
        assert_eq!(r.boundary_hists_total, 80);
        assert_eq!(r.boundary_dirty_marked, 6);
        assert_eq!(r.collect_bytes, 2_560);
        assert_eq!(r.publish_failures, 1);
        let json = r.to_json();
        assert!(json.contains("\"boundary_hists_shipped\":4"));
        assert!(json.contains("\"boundary_hists_total\":80"));
        assert!(json.contains("\"boundary_dirty_marked\":6"));
        assert!(json.contains("\"collect_bytes\":2560"));
        assert!(json.contains("\"publish_failures\":1"));
    }

    #[test]
    fn empty_histogram_percentiles_are_zero_not_bucket_bounds() {
        // A window that records no samples at all — e.g. a query-less
        // barrier window under a delete-heavy adversarial scenario —
        // must summarize to zeros, never to a bucket representative or
        // the saturated top-bucket bound.
        let h = LatencyHistogram::new();
        let s = h.summarize();
        assert_eq!(s, LatencySummary::default());
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns), (0, 0, 0, 0));

        // Same guarantee through the full report path: untouched query
        // and snapshot histograms on an otherwise-active service.
        let stats = ServeStats::default();
        stats.note_flush(4, 0, 9, Duration::from_micros(2));
        let r = stats.report();
        assert_eq!(r.queries, LatencySummary::default());
        assert_eq!(r.snapshots, LatencySummary::default());
        assert_eq!(r.flushes.count, 1);
        let json = r.to_json();
        assert!(json.contains("\"query_count\":0"));
        assert!(json.contains("\"query_p99_ns\":0"));
        assert!(json.contains("\"query_max_ns\":0"));
    }

    #[test]
    fn dirty_region_counters_roll_into_json() {
        let stats = ServeStats::default();
        stats.note_dirty_region(25, 1_000);
        stats.note_dirty_region(75, 1_000);
        let r = stats.report();
        assert_eq!(r.dirty_vertices, 100);
        assert_eq!(r.dirty_span, 2_000);
        assert!((r.dirty_fraction() - 0.05).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"dirty_vertices\":100"));
        assert!(json.contains("\"dirty_span\":2000"));
        assert!(json.contains("\"dirty_fraction\":0.050000"));
        // No flush yet → fraction is defined as 0, not NaN.
        assert_eq!(ServeStats::default().report().dirty_fraction(), 0.0);
    }

    #[test]
    fn quality_windows_roll_into_json_in_order() {
        let stats = ServeStats::default();
        stats.note_quality_window(QualityWindow {
            epoch: 1,
            onmi: 0.97,
            f1: 0.99,
            omega: 0.9,
        });
        stats.note_quality_window(QualityWindow {
            epoch: 2,
            onmi: 0.5,
            f1: 0.625,
            omega: 0.25,
        });
        let r = stats.report();
        assert_eq!(r.quality_per_window.len(), 2);
        assert_eq!(r.quality_per_window[0].epoch, 1);
        let json = r.to_json();
        assert!(json.contains(
            "\"quality_per_window\":[\
             {\"epoch\":1,\"onmi\":0.970000,\"f1\":0.990000,\"omega\":0.900000},\
             {\"epoch\":2,\"onmi\":0.500000,\"f1\":0.625000,\"omega\":0.250000}]"
        ));
        // An unscored run emits an empty array, keeping the shape stable.
        assert!(ServeStats::default()
            .report()
            .to_json()
            .contains("\"quality_per_window\":[]"));
    }

    /// Split a flat JSON object into its top-level `(key, value)` pairs,
    /// values verbatim. The stats JSON has no strings containing `,`, `:`
    /// or brackets, so bracket depth alone finds the separators.
    fn top_level_entries(json: &str) -> Vec<(String, String)> {
        let body = json
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .expect("a JSON object");
        let mut parts = Vec::new();
        let (mut depth, mut start) = (0i32, 0);
        for (i, c) in body.char_indices() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&body[start..]);
        parts
            .into_iter()
            .map(|p| {
                let (k, v) = p.split_once(':').expect("key:value");
                (k.trim_matches('"').to_string(), v.to_string())
            })
            .collect()
    }

    /// A service whose every counter, gauge and histogram holds a value
    /// no other one holds, so a mis-wired key or field reads wrong.
    fn golden_stats() -> ServeStats {
        let stats = ServeStats::with_shards(2);
        let set = |c: &AtomicU64, v: u64| c.store(v, Ordering::Relaxed);
        set(&stats.edits_enqueued, 101);
        set(&stats.edits_applied, 102);
        set(&stats.edits_rejected, 103);
        set(&stats.batches_flushed, 104);
        set(&stats.slots_repaired, 105);
        set(&stats.slot_deltas_net, 106);
        set(&stats.barriers, 107);
        set(&stats.exchange_rounds, 108);
        set(&stats.boundary_msgs, 109);
        set(&stats.boundary_hists_shipped, 110);
        set(&stats.boundary_hists_total, 111);
        set(&stats.boundary_dirty_marked, 112);
        set(&stats.collect_bytes, 113);
        set(&stats.boundary_edges_merged, 114);
        set(&stats.boundary_edges_total, 115);
        set(&stats.publish_failures, 116);
        set(&stats.channel_hops, 117);
        set(&stats.envelope_hops, 118);
        set(&stats.cut_edges, 119);
        set(&stats.boundary_vertices, 120);
        set(&stats.repartitions, 121);
        set(&stats.vertices_migrated, 122);
        set(&stats.hub_pulls, 123);
        set(&stats.damped_deferrals, 124);
        set(&stats.max_degree_delta, 125);
        set(&stats.mem_live_bytes, 126);
        set(&stats.mem_capacity_bytes, 127);
        set(&stats.mem_vertices, 128);
        set(&stats.trace_dropped_records, 129);
        set(&stats.dirty_vertices, 130);
        set(&stats.dirty_span, 131);
        for (s, shard) in stats.shards.iter().enumerate() {
            let base = 1_000_000 * (s as u64 + 1);
            set(&shard.edits_routed, base + 11);
            set(&shard.slots_repaired, base + 12);
            set(&shard.upkeep_deltas, base + 13);
            set(&shard.upkeep_ns, base + 14_000);
            set(&shard.work_ns, base + 15_000);
            set(&shard.mailbox_wait_ns, base + 16_000);
            set(&shard.barrier_wait_ns, base + 17_000);
            set(&shard.barrier_arrive_ns, base + 18_000);
            set(&shard.barrier_depart_ns, base + 19_000);
            set(&shard.wall_ns, 5 * base + 20_000);
        }
        let ns = Duration::from_nanos;
        for d in [70, 1_100, 90_000] {
            stats.queries.record(ns(d));
        }
        for d in [2_000, 3_000] {
            stats.flushes.record(ns(d));
        }
        stats.snapshots.record(ns(5_000_000));
        for d in [40_000, 41_000, 700_000] {
            stats.counters.record(ns(d));
        }
        for v in [3, 9, 17, 17] {
            stats.mailbox_depth.record_value(v);
        }
        for d in [12_000, 250_000] {
            stats.barrier_wait.record(ns(d));
        }
        stats.note_quality_window(QualityWindow {
            epoch: 4,
            onmi: 0.5,
            f1: 0.25,
            omega: 0.125,
        });
        stats
    }

    #[test]
    fn golden_report_pins_every_json_entry_and_field() {
        let r = golden_stats().report();
        let expected: &[(&str, &str)] = &[
            ("schema_version", "7"),
            ("edits_enqueued", "101"),
            ("edits_applied", "102"),
            ("edits_rejected", "103"),
            ("batches_flushed", "104"),
            ("slots_repaired", "105"),
            ("slot_deltas_net", "106"),
            ("barriers", "107"),
            ("exchange_rounds", "108"),
            ("boundary_msgs", "109"),
            ("boundary_hists_shipped", "110"),
            ("boundary_hists_total", "111"),
            ("boundary_dirty_marked", "112"),
            ("collect_bytes", "113"),
            ("boundary_edges_merged", "114"),
            ("boundary_edges_total", "115"),
            ("publish_failures", "116"),
            ("channel_hops", "117"),
            ("envelope_hops", "118"),
            ("cut_edges", "119"),
            ("boundary_vertices", "120"),
            ("repartitions", "121"),
            ("vertices_migrated", "122"),
            ("hub_pulls", "123"),
            ("damped_deferrals", "124"),
            ("max_degree_delta", "125"),
            ("mem_live_bytes", "126"),
            ("mem_capacity_bytes", "127"),
            ("mem_vertices", "128"),
            ("trace_dropped_records", "129"),
            ("dirty_vertices", "130"),
            ("dirty_span", "131"),
            ("dirty_fraction", "0.992366"),
            ("bytes_per_vertex", "0.99"),
            ("saturated_samples", "0"),
            ("snapshots_published", "1"),
            ("shards", "2"),
            ("shard_edits_routed", "[1000011,2000011]"),
            ("shard_slots_repaired", "[1000012,2000012]"),
            (
                "upkeep_per_shard",
                "{\"deltas\":[1000013,2000013],\"ns\":[1014000,2014000]}",
            ),
            (
                "attribution_per_shard",
                "{\"work_us\":[1015.0,2015.0],\"barrier_wait_us\":[1017.0,2017.0],\
                 \"barrier_arrive_us\":[1018.0,2018.0],\"barrier_depart_us\":[1019.0,2019.0],\
                 \"mailbox_wait_us\":[1016.0,2016.0],\"upkeep_us\":[1014.0,2014.0],\
                 \"wall_us\":[5020.0,10020.0],\"coverage\":[0.809,0.805]}",
            ),
            (
                "quality_per_window",
                "[{\"epoch\":4,\"onmi\":0.500000,\"f1\":0.250000,\"omega\":0.125000}]",
            ),
            (
                "mailbox_depth",
                "{\"count\":4,\"p50\":11,\"p99\":17,\"max\":17}",
            ),
            (
                "barrier_wait_us",
                "{\"count\":2,\"mean\":131.000,\"p50\":12.000,\"p99\":185.364}",
            ),
            ("query_count", "3"),
            ("query_mean_ns", "30390"),
            ("query_p50_ns", "1448"),
            ("query_p90_ns", "90000"),
            ("query_p99_ns", "90000"),
            ("query_max_ns", "90000"),
            ("flush_count", "2"),
            ("flush_mean_ns", "2500"),
            ("flush_p50_ns", "2000"),
            ("flush_p99_ns", "2896"),
            ("counter_mean_ns", "260333"),
            ("counter_p50_ns", "46341"),
            ("counter_p99_ns", "700000"),
            ("snapshot_mean_ns", "5000000"),
            ("snapshot_p50_ns", "5000000"),
            ("snapshot_p99_ns", "5000000"),
        ];
        let entries = top_level_entries(&r.to_json());
        let emitted: std::collections::BTreeMap<_, _> = entries.iter().cloned().collect();
        assert_eq!(emitted.len(), entries.len(), "duplicate key in {entries:?}");
        let expected: std::collections::BTreeMap<_, _> = expected
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(emitted, expected);

        let scalars = [
            r.edits_enqueued,
            r.edits_applied,
            r.edits_rejected,
            r.batches_flushed,
            r.slots_repaired,
            r.slot_deltas_net,
            r.barriers,
            r.exchange_rounds,
            r.boundary_msgs,
            r.boundary_hists_shipped,
            r.boundary_hists_total,
            r.boundary_dirty_marked,
            r.collect_bytes,
            r.boundary_edges_merged,
            r.boundary_edges_total,
            r.publish_failures,
            r.channel_hops,
            r.envelope_hops,
            r.cut_edges,
            r.boundary_vertices,
            r.repartitions,
            r.vertices_migrated,
            r.hub_pulls,
            r.damped_deferrals,
            r.max_degree_delta,
            r.mem_live_bytes,
            r.mem_capacity_bytes,
            r.mem_vertices,
            r.trace_dropped_records,
            r.dirty_vertices,
            r.dirty_span,
        ];
        assert_eq!(scalars.to_vec(), (101..=131).collect::<Vec<u64>>());
        let count_max = |s: LatencySummary| (s.count, s.max_ns);
        assert_eq!(count_max(r.queries), (3, 90_000));
        assert_eq!(count_max(r.flushes), (2, 3_000));
        assert_eq!(count_max(r.snapshots), (1, 5_000_000));
        assert_eq!(count_max(r.counters), (3, 700_000));
        assert_eq!(count_max(r.mailbox_depth), (4, 17));
        assert_eq!(count_max(r.barrier_wait), (2, 250_000));
        assert_eq!((r.snapshots_published, r.saturated_samples), (1, 0));
        assert_eq!(r.quality_per_window.len(), 1);
        for (s, c) in r.shards.iter().enumerate() {
            let base = 1_000_000 * (s as u64 + 1);
            assert_eq!(
                *c,
                ShardCounts {
                    edits_routed: base + 11,
                    slots_repaired: base + 12,
                    upkeep_deltas: base + 13,
                    upkeep_ns: base + 14_000,
                    work_ns: base + 15_000,
                    mailbox_wait_ns: base + 16_000,
                    barrier_wait_ns: base + 17_000,
                    barrier_arrive_ns: base + 18_000,
                    barrier_depart_ns: base + 19_000,
                    wall_ns: 5 * base + 20_000,
                }
            );
        }
    }

    #[test]
    fn schema_table_documents_exactly_the_emitted_keys() {
        let documented: Vec<&str> = SCHEMA_KEYS
            .iter()
            .flat_map(|row| row.iter().copied())
            .collect();
        let unique: std::collections::BTreeSet<&str> = documented.iter().copied().collect();
        assert_eq!(unique.len(), documented.len(), "a key is documented twice");
        for shards in [1, 3] {
            let json = ServeStats::with_shards(shards).report().to_json();
            let emitted: std::collections::BTreeSet<String> = top_level_entries(&json)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let documented: std::collections::BTreeSet<String> =
                unique.iter().map(|k| k.to_string()).collect();
            assert_eq!(emitted, documented);
        }
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.summarize().count, 4000);
    }
}
