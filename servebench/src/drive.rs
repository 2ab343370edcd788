//! One measured pass against a live `CommunityService`: a writer thread
//! offering the edit stream in a closed loop and a reader thread
//! issuing the 60/25/15 membership/overlap/roster mix for the whole write
//! phase. Every call is timed by the benchmark itself; nothing here reads
//! the service's own latency summaries.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rslpa_graph::rng::DetRng;
use rslpa_graph::{Cover, VertexId};
use rslpa_serve::trace::Dump;
use rslpa_serve::{
    BySize, CommunityService, EditOp, IngestHandle, QueryEngine, ServeConfig, StatsReport,
    TraceOptions,
};

use crate::hist::{interquartile_mean, Histogram, Windowed};
use crate::layers::ratio;
use crate::workload::{Workload, ITERATIONS};

/// Length of a reader measurement window.
const READ_WINDOW: Duration = Duration::from_secs(1);

/// Flight-recorder ring per lane in traced passes (32 B per record). Sized
/// so a run of up to a minute drops nothing; the run fails if it does.
const TRACE_RING: usize = 1 << 21;

/// The service configuration a workload runs under (also the replay's
/// detector configuration, so the two cannot drift apart).
pub fn serve_config(w: &Workload, seed: u64) -> ServeConfig {
    ServeConfig::quick(ITERATIONS, Workload::detector_seed(seed))
        .with_policy(BySize {
            max_edits: w.flush,
            // Far longer than any run: flushes are cut by size alone.
            max_linger: Duration::from_secs(24 * 3600),
        })
        .with_snapshot_every(w.publish_every)
        .with_shards(w.shards)
}

/// Writer-side measurements.
#[derive(Default)]
pub struct WriterStats {
    /// Edits submitted (the whole stream).
    pub submitted: usize,
    /// Barriers issued.
    pub barriers: u64,
    /// Submit or barrier calls that returned `ServiceClosed`.
    pub closed_errors: u64,
    /// First submit → return of the final barrier.
    pub ingest: Duration,
    /// Edits per second within each window of the stream
    /// (`Workload::window_of`), from its first submit to the return of its
    /// last barrier.
    pub window_eps: Vec<f64>,
    pub submit_ns: Histogram,
    pub barrier_ns: Histogram,
    pub depth_max: usize,
}

/// Reader-side measurements.
pub struct ReaderStats {
    /// Every `QueryEngine` call, refresh included, per `READ_WINDOW` of
    /// the reader's wall time (the last window takes any overrun).
    pub all_ns: Windowed,
    pub membership_ns: Histogram,
    pub overlap_ns: Histogram,
    pub roster_ns: Histogram,
    /// Raw `SnapshotReader` refresh + membership read, no accounting.
    pub raw_ns: Histogram,
    pub calls: u64,
    pub wall: Duration,
    /// `(ns since pass start, batches_applied)` of each newly seen epoch,
    /// in the order the reader first saw them.
    pub seen: Vec<(u64, usize)>,
    /// Epochs seen that did not fit the preallocated log (must stay 0).
    pub seen_overflow: u64,
    /// The window calls are being recorded in.
    window: usize,
}

/// Everything one pass produced.
pub struct Pass {
    pub setups: Vec<Duration>,
    pub writer: WriterStats,
    pub reader: ReaderStats,
    /// Per submitted edit: when it was submitted, in ns since pass start.
    pub sent_ns: Vec<u64>,
    pub final_cover: Cover,
    pub final_fingerprint: u64,
    pub final_batches: usize,
    pub stats: StatsReport,
    pub dump: Option<Dump>,
}

/// Start the service once, timing `CommunityService::start`.
pub fn timed_start(
    w: &Workload,
    seed: u64,
    graph: &rslpa_graph::AdjacencyGraph,
    traced: bool,
) -> (CommunityService, Duration) {
    let mut config = serve_config(w, seed);
    if traced {
        config = config.with_trace(TraceOptions {
            capacity_per_lane: TRACE_RING,
        });
    }
    let g = graph.clone();
    let started = Instant::now();
    let s = CommunityService::start(g, config);
    (s, started.elapsed())
}

/// Start the service `setups` times (timing each; all but the last are
/// shut down), then offer every op with one writer thread while one reader
/// thread queries.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    graph: &rslpa_graph::AdjacencyGraph,
    ops: &[EditOp],
    setups: usize,
    traced: bool,
) -> Pass {
    let mut setup_times = Vec::with_capacity(setups);
    let mut service = None;
    for _ in 0..setups.max(1) {
        drop(service.take().map(CommunityService::shutdown));
        let (s, took) = timed_start(w, seed, graph, traced);
        setup_times.push(took);
        service = Some(s);
    }
    let service = service.expect("at least one start");

    let n = graph.num_vertices() as u64;
    let done = AtomicBool::new(false);
    let mut sent_ns = vec![0u64; ops.len()];
    // Upper bound on the epochs the reader can see: genesis plus one per
    // flush.
    let max_epochs = ops.len() / w.flush + 2;
    // Room for a pass four times longer than the stream is sized for.
    let read_windows = 4 * ops.len().div_ceil(w.eps) + 4;
    let base = Instant::now();
    let (writer, reader) = std::thread::scope(|s| {
        let reader =
            s.spawn(|| read_loop(&service, n, seed, base, &done, max_epochs, read_windows));
        let writer = s.spawn(|| {
            let out = closed_writer(w, &service, ops, base, &mut sent_ns);
            done.store(true, Ordering::Release);
            out
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });

    let last = service.latest();
    let tracer = service.tracer();
    let stats = service.shutdown();
    // Drain after shutdown: every lane has joined, so nothing is torn.
    let dump = traced.then(|| tracer.drain());
    Pass {
        setups: setup_times,
        writer,
        reader,
        sent_ns,
        final_cover: last.cover.clone(),
        final_fingerprint: last.weights_fingerprint,
        final_batches: last.batches_applied,
        stats,
        dump,
    }
}

fn elapsed_ns(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Submit one op, timing the call and counting `ServiceClosed`.
fn submit(ingest: &IngestHandle, ws: &mut WriterStats, op: EditOp) {
    let t = Instant::now();
    let r = ingest.submit(op);
    ws.submit_ns.record_duration(t.elapsed());
    if r.is_err() {
        ws.closed_errors += 1;
    }
}

fn barrier(ingest: &IngestHandle, ws: &mut WriterStats) {
    let t = Instant::now();
    let r = ingest.barrier();
    ws.barrier_ns.record_duration(t.elapsed());
    ws.barriers += 1;
    if r.is_err() {
        ws.closed_errors += 1;
    }
}

/// Closed loop: one publish interval per request, each acknowledged by a
/// barrier before the next is sent.
fn closed_writer(
    w: &Workload,
    service: &CommunityService,
    ops: &[EditOp],
    base: Instant,
    sent_ns: &mut [u64],
) -> WriterStats {
    let mut ws = WriterStats::default();
    let ingest = service.ingest();
    let started = Instant::now();
    // (window, edits, its first submit) of the window being sent.
    let mut window = (0, 0, started);
    for (c, (chunk, sent)) in ops
        .chunks(w.chunk())
        .zip(sent_ns.chunks_mut(w.chunk()))
        .enumerate()
    {
        let first = c * w.chunk();
        if w.window_of(first, ops.len()) != window.0 {
            window = (w.window_of(first, ops.len()), 0, Instant::now());
        }
        for (&op, sent) in chunk.iter().zip(sent) {
            *sent = elapsed_ns(base);
            submit(&ingest, &mut ws, op);
        }
        ws.depth_max = ws.depth_max.max(service.queue_depth());
        barrier(&ingest, &mut ws);
        window.1 += chunk.len();
        let last = first + chunk.len() >= ops.len()
            || w.window_of(first + chunk.len(), ops.len()) != window.0;
        if last {
            ws.window_eps
                .push(window.1 as f64 / window.2.elapsed().as_secs_f64());
        }
    }
    ws.ingest = started.elapsed();
    ws.submitted = ops.len();
    ws
}

/// Closed-loop reader: rounds of the `repro serve` mix (per 20 ops: 12
/// membership, 5 overlap, 3 roster-of-a-member's-community) plus one raw
/// snapshot read, until the writer is done. Logs each newly visible epoch.
fn read_loop(
    service: &CommunityService,
    n: u64,
    seed: u64,
    base: Instant,
    done: &AtomicBool,
    max_epochs: usize,
    windows: usize,
) -> ReaderStats {
    let mut rs = ReaderStats {
        all_ns: Windowed::new(windows),
        membership_ns: Histogram::default(),
        overlap_ns: Histogram::default(),
        roster_ns: Histogram::default(),
        raw_ns: Histogram::default(),
        calls: 0,
        wall: Duration::ZERO,
        seen: Vec::with_capacity(max_epochs),
        seen_overflow: 0,
        window: 0,
    };
    let mut queries = service.query();
    let mut raw = service.reader();
    let mut rng = DetRng::new(seed ^ 0x7ead_e700);
    let mut last_epoch = u64::MAX;
    let started = Instant::now();
    note_epoch(&mut queries, &mut rs, &mut last_epoch, base);
    loop {
        // Checked once per mix round; the last round runs after the final
        // barrier returned, so the final epoch is always observed.
        let finished = done.load(Ordering::Acquire);
        rs.window =
            ((started.elapsed().as_nanos() / READ_WINDOW.as_nanos()) as usize).min(windows - 1);
        for k in 0..20 {
            let u = rng.bounded(n) as VertexId;
            match k {
                0..=11 => {
                    let t = Instant::now();
                    black_box(queries.membership(u));
                    rs.note_call(t.elapsed(), Call::Membership);
                }
                12..=16 => {
                    let v = rng.bounded(n) as VertexId;
                    let t = Instant::now();
                    black_box(queries.overlap(u, v));
                    rs.note_call(t.elapsed(), Call::Overlap);
                }
                _ => {
                    let t = Instant::now();
                    let c = queries.membership(u).first().copied().unwrap_or(0);
                    rs.note_call(t.elapsed(), Call::Membership);
                    let t = Instant::now();
                    black_box(queries.roster(c));
                    rs.note_call(t.elapsed(), Call::Roster);
                }
            }
            note_epoch(&mut queries, &mut rs, &mut last_epoch, base);
        }
        let u = rng.bounded(n) as VertexId;
        let t = Instant::now();
        black_box(raw.refresh().membership(u).len());
        rs.raw_ns.record_duration(t.elapsed());
        if finished {
            break;
        }
        // Give the core up between rounds: the writer and the service's
        // threads share the two cores with this one, and the writer's
        // next request should not wait out this thread's time slice.
        std::thread::yield_now();
    }
    rs.wall = started.elapsed();
    rs
}

#[derive(Clone, Copy)]
enum Call {
    Membership,
    Overlap,
    Roster,
}

impl ReaderStats {
    fn note_call(&mut self, d: Duration, call: Call) {
        self.all_ns.windows[self.window].record_duration(d);
        match call {
            Call::Membership => &mut self.membership_ns,
            Call::Overlap => &mut self.overlap_ns,
            Call::Roster => &mut self.roster_ns,
        }
        .record_duration(d);
        self.calls += 1;
    }

    /// Interquartile mean over the whole `READ_WINDOW`s of the calls per
    /// second in each (the last window, which takes any overrun, never
    /// counts); the whole pass's rate when it did not fill one window.
    pub fn qps(&self) -> f64 {
        let full = (self.wall.as_nanos() / READ_WINDOW.as_nanos()) as usize;
        let windows = &self.all_ns.windows;
        let whole = &windows[..full.min(windows.len() - 1)];
        if whole.is_empty() {
            return ratio(self.calls as f64, self.wall.as_secs_f64());
        }
        interquartile_mean(
            whole
                .iter()
                .map(|h| h.count() as f64 / READ_WINDOW.as_secs_f64())
                .collect(),
        )
    }
}

/// Log the engine's epoch if it is new (the `pin` that fetches its
/// `batches_applied` may land on a newer one; that is the one logged).
fn note_epoch(queries: &mut QueryEngine, rs: &mut ReaderStats, last: &mut u64, base: Instant) {
    if queries.epoch() == *last {
        return;
    }
    let at = elapsed_ns(base);
    let snap = queries.pin();
    *last = snap.epoch;
    if rs.seen.len() < rs.seen.capacity() {
        rs.seen.push((at, snap.batches_applied));
    } else {
        rs.seen_overflow += 1;
    }
}
