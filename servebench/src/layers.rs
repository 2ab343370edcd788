//! Per-layer figures from the service's flight recorder: span durations
//! of the maintenance lane (lane 0) and the shard-worker lanes (1 + s).

use rslpa_serve::trace::{names, Dump, RecordKind};

use crate::hist::Histogram;

/// What the recorder says about one traced pass.
pub struct TraceLayers {
    /// Span durations per span name, over the maintenance lane.
    pub maint: Vec<Histogram>,
    /// First record start to last record end on the maintenance lane.
    pub maint_wall_ns: u64,
    /// Share of the maintenance lane's wall its top-level spans (queue
    /// drain, flush, publish) cover.
    pub maint_coverage: f64,
    /// Per worker lane: (wall, work, mailbox wait, barrier wait) in ns.
    pub workers: Vec<WorkerLane>,
    pub dropped: u64,
    pub torn: u64,
}

#[derive(Clone, Copy, Default)]
pub struct WorkerLane {
    pub wall_ns: u64,
    pub work_ns: u64,
    pub mailbox_wait_ns: u64,
    pub barrier_wait_ns: u64,
}

/// Top-level spans of a worker lane that are work, not waiting (the
/// exchange span contains the round-barrier waits, subtracted below).
const WORKER_BUSY: [u16; 5] = [
    names::SHARD_FLUSH,
    names::EXCHANGE,
    names::UPKEEP,
    names::COLLECT,
    names::MIGRATE,
];

impl TraceLayers {
    pub fn from_dump(dump: &Dump, shards: usize) -> Self {
        let mut maint: Vec<Histogram> = (0..names::NAMES.len())
            .map(|_| Histogram::default())
            .collect();
        let mut lanes = vec![(u64::MAX, 0u64); shards + 1];
        let mut workers = vec![WorkerLane::default(); shards];
        for r in dump.records.iter().filter(|r| r.kind == RecordKind::Span) {
            let lane = r.lane as usize;
            if lane > shards {
                continue;
            }
            let (first, last) = &mut lanes[lane];
            *first = (*first).min(r.start_ns);
            *last = (*last).max(r.start_ns + r.dur_ns);
            if lane == 0 {
                if let Some(h) = maint.get_mut(r.name as usize) {
                    h.record(r.dur_ns);
                }
                continue;
            }
            let wl = &mut workers[lane - 1];
            match r.name {
                names::MAILBOX_WAIT => wl.mailbox_wait_ns += r.dur_ns,
                names::BARRIER_WAIT => wl.barrier_wait_ns += r.dur_ns,
                n if WORKER_BUSY.contains(&n) => wl.work_ns += r.dur_ns,
                _ => {}
            }
        }
        for (s, wl) in workers.iter_mut().enumerate() {
            let (first, last) = lanes[s + 1];
            wl.wall_ns = last.saturating_sub(first);
            wl.work_ns = wl.work_ns.saturating_sub(wl.barrier_wait_ns);
        }
        let (first, last) = lanes[0];
        let maint_wall_ns = last.saturating_sub(first);
        let top: u128 = [names::QUEUE_DRAIN, names::FLUSH, names::PUBLISH]
            .iter()
            .map(|&n| maint[n as usize].sum())
            .sum();
        Self {
            maint_coverage: ratio(top as f64, maint_wall_ns as f64),
            maint,
            maint_wall_ns,
            workers,
            dropped: dump.dropped,
            torn: dump.torn_reads,
        }
    }

    /// Span durations of one maintenance-lane span name.
    pub fn span(&self, name: u16) -> &Histogram {
        &self.maint[name as usize]
    }

    /// Share of the summed worker wall spent in `part` (0 without workers).
    pub fn worker_frac(&self, part: impl Fn(&WorkerLane) -> u64) -> f64 {
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
        ratio(
            self.workers.iter().map(part).sum::<u64>() as f64,
            wall as f64,
        )
    }

    /// Busiest worker's work over the mean (1 = balanced; 0 without
    /// workers).
    pub fn imbalance(&self) -> f64 {
        let work: Vec<f64> = self.workers.iter().map(|w| w.work_ns as f64).collect();
        let mean = work.iter().sum::<f64>() / work.len().max(1) as f64;
        ratio(work.iter().copied().fold(0.0, f64::max), mean)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rslpa_serve::trace::Record;

    fn span(lane: u16, name: u16, start_ns: u64, dur_ns: u64) -> Record {
        Record {
            lane,
            name,
            kind: RecordKind::Span,
            seq: 0,
            start_ns,
            dur_ns,
            aux: 0,
        }
    }

    #[test]
    fn coverage_and_worker_split() {
        let dump = Dump {
            records: vec![
                span(0, names::QUEUE_DRAIN, 0, 40),
                span(0, names::FLUSH, 40, 30),
                span(0, names::RESOLVE, 41, 5),
                span(0, names::PUBLISH, 80, 20),
                span(1, names::MAILBOX_WAIT, 0, 50),
                span(1, names::EXCHANGE, 50, 50),
                span(1, names::BARRIER_WAIT, 60, 20),
            ],
            torn_reads: 0,
            dropped: 0,
        };
        let t = TraceLayers::from_dump(&dump, 1);
        assert_eq!(t.maint_wall_ns, 100);
        // 40 + 30 + 20 of 100 ns; the nested resolve span is not counted.
        assert!((t.maint_coverage - 0.9).abs() < 1e-12);
        assert_eq!(t.span(names::RESOLVE).sum(), 5);
        let w = t.workers[0];
        assert_eq!(
            (w.wall_ns, w.work_ns, w.mailbox_wait_ns, w.barrier_wait_ns),
            (100, 30, 50, 20)
        );
        assert!((t.worker_frac(|w| w.barrier_wait_ns) - 0.2).abs() < 1e-12);
        assert!((t.imbalance() - 1.0).abs() < 1e-12);
    }
}
