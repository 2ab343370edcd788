//! The three serving workloads and their pre-generated edit streams.
//!
//! Every stream is generated before timing starts, from the seed alone,
//! against a shadow copy of the evolving graph: each generator round is a
//! strictly valid batch (no duplicate inserts, no absent deletes), so a
//! flush of consecutive ops can never be rejected by the service.

use rslpa_gen::edits::{targeted_batch, EditWorkload};
use rslpa_gen::lfr::LfrParams;
use rslpa_gen::webgraph::{rmat, RmatParams};
use rslpa_graph::{AdjacencyGraph, Cover, DynamicGraph};
use rslpa_serve::EditOp;

/// One named workload. The writer offers load in a closed loop: it submits
/// one publish interval (`flush × publish_every` edits), waits for its
/// barrier, and repeats.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    pub churn: EditWorkload,
    /// `BySize` flush threshold; the linger is far longer than any run,
    /// so flushes are size-only and edit `i` is in flush `⌊i / flush⌋`.
    pub flush: usize,
    /// Publish a snapshot every this many flushes.
    pub publish_every: usize,
    pub shards: usize,
    /// Edits per second of `--seconds`: a run offers exactly
    /// `eps × seconds` edits, as fast as the service takes them, so one run
    /// lasts about `--seconds` at today's capacity. Fixed work, not a
    /// deadline: uniform churn makes each later edit dearer as the planted
    /// structure dissolves, so a deadline would measure a faster program on
    /// a more-churned graph.
    pub eps: usize,
    /// Service starts per run, half before the pass and half after its
    /// replay; `setup_s` is their interquartile mean.
    pub setups: usize,
}

/// Seed-graph family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// LFR benchmark graph with planted overlapping communities.
    Lfr { n: usize },
    /// R-MAT web graph with `2^scale` vertices.
    Rmat { scale: u32 },
}

/// Detector iterations `T` (the `repro serve` setting).
pub const ITERATIONS: usize = 50;

/// Edits per generator round: one strictly valid batch against the shadow.
const ROUND: usize = 2048;

pub const WORKLOADS: [Workload; 2] = [
    // Uniform churn dirties most vertices, so Correction Propagation
    // repair and edge-counter upkeep dominate; the mesh is idle (1 shard)
    // and damping never fires (LFR max degree 40 < cap 64).
    Workload {
        name: "bulk_uniform",
        topology: Topology::Lfr { n: 4000 },
        churn: EditWorkload::Uniform,
        flush: 256,
        publish_every: 8,
        shards: 1,
        eps: 16_000,
        setups: 11,
    },
    // Hot-spot churn around the R-MAT hubs (over the damping cap) on two
    // mailbox shards: publish over a large graph, mesh exchange, damping
    // and migration dominate; repair per edit is small.
    Workload {
        name: "hotspot_sharded",
        topology: Topology::Rmat { scale: 15 },
        churn: EditWorkload::Localized,
        flush: 256,
        publish_every: 8,
        shards: 2,
        eps: 5_000,
        setups: 6,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload's generated inputs.
pub struct Inputs {
    pub graph: AdjacencyGraph,
    /// The planted cover (LFR only).
    pub truth: Option<Cover>,
    /// The edit stream, in submission order.
    pub ops: Vec<EditOp>,
}

impl Workload {
    /// Edits one closed-loop request carries (one publish interval).
    pub fn chunk(&self) -> usize {
        self.flush * self.publish_every
    }

    /// Edits in a run of `seconds`: a whole number of publish intervals.
    pub fn stream_len(&self, seconds: u64) -> usize {
        (self.eps * seconds as usize).div_ceil(self.chunk()) * self.chunk()
    }

    /// Edits per measurement window: about one second of offered load,
    /// but at least eight publish intervals, so a window's visibility tail
    /// is not a single epoch; a whole number of publish intervals.
    pub fn window_edits(&self) -> usize {
        self.eps
            .max(8 * self.chunk())
            .next_multiple_of(self.chunk())
    }

    /// Window of edit `i` in a stream of `len`: a trailing remainder
    /// shorter than a window joins the last whole one.
    pub fn window_of(&self, i: usize, len: usize) -> usize {
        let windows = (len / self.window_edits()).max(1);
        (i / self.window_edits()).min(windows - 1)
    }

    /// Windows a stream of `len` edits is cut into.
    pub fn windows(&self, len: usize) -> usize {
        self.window_of(len.saturating_sub(1), len) + 1
    }

    /// Detector seed derived from the workload seed.
    pub fn detector_seed(seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed
    }

    /// Generate the seed graph and the edit stream for `seconds` of run.
    pub fn inputs(&self, seed: u64, seconds: u64) -> Inputs {
        let (graph, truth) = match self.topology {
            Topology::Lfr { n } => {
                let lfr = LfrParams {
                    seed,
                    ..LfrParams::scaled(n)
                }
                .generate()
                .expect("LFR generation");
                (lfr.graph, Some(lfr.ground_truth))
            }
            Topology::Rmat { scale } => (rmat(&RmatParams::web(scale, seed)), None),
        };
        let len = self.stream_len(seconds);
        let mut ops = Vec::with_capacity(len);
        let mut shadow = DynamicGraph::new(graph.clone());
        let empty = Cover::default();
        let mut round = 0u64;
        while ops.len() < len {
            let size = ROUND.min(len - ops.len());
            let round_seed = seed ^ 0xed17_0000_0000 ^ round;
            let batch = targeted_batch(
                shadow.graph(),
                truth.as_ref().unwrap_or(&empty),
                self.churn,
                size,
                round_seed,
            );
            assert_eq!(batch.len(), size, "generator short of edits");
            shadow.apply(&batch).expect("generated batch validates");
            ops.extend(batch.deletions().iter().map(|&(u, v)| EditOp::Delete(u, v)));
            ops.extend(
                batch
                    .insertions()
                    .iter()
                    .map(|&(u, v)| EditOp::Insert(u, v)),
            );
            round += 1;
        }
        Inputs { graph, truth, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_whole_publish_intervals_and_absorb_the_remainder() {
        for w in WORKLOADS {
            let per = w.window_edits();
            assert_eq!(per % w.chunk(), 0, "{}", w.name);
            assert!(per >= w.eps && per >= 8 * w.chunk(), "{}", w.name);
            let len = w.stream_len(20);
            let n = w.windows(len);
            assert_eq!(w.window_of(0, len), 0);
            assert_eq!(w.window_of(len - 1, len), n - 1);
            // Every window but the last holds exactly `per` edits, and
            // the last at least that many.
            assert!(len - (n - 1) * per >= per, "{}", w.name);
        }
        let bulk = by_name("bulk_uniform").unwrap();
        // 16000 edits/s, but at least eight 2048-edit publish intervals.
        assert_eq!(bulk.window_edits(), 16384);
        // A stream shorter than one window is one window.
        assert_eq!(bulk.windows(100), 1);
    }
}
