//! rSLPA: randomized Speaker–Listener Label Propagation with incremental
//! updating over distributed dynamic graphs (the paper's contribution).
//!
//! Pipeline (paper §III–§IV):
//!
//! 1. **Randomized label propagation** (Algorithm 1): at iteration `t`
//!    every vertex uniformly picks a neighbor `src` and a position
//!    `pos < t` and appends `src`'s label at `pos` — one fetched label per
//!    vertex per iteration (`O(|V|)` traffic vs SLPA's `O(|E|)`).
//!    [`propagation`] (centralized) and [`propagation_bsp`] (the
//!    request/reply vertex program) produce bit-identical [`LabelState`]s.
//! 2. **Provenance + receiver records**: every pick's `(src, pos)` is
//!    stored, and the reverse index `R_v^t` (who picked my label at slot
//!    `t`) is maintained — the data structure enabling incremental repair.
//! 3. **Correction propagation** (Algorithm 2): after an edit batch,
//!    vertices are classified per how their neighborhood changed
//!    (Categories 1–3, Theorems 4–5), stale picks are re-drawn, and label
//!    changes cascade through receiver records in iteration order.
//!    [`incremental`] implements the centralized semantics,
//!    [`incremental_bsp`] the paper's actual message-passing loop.
//! 4. **Post-processing** (§III-B): edge similarity `w_ij = P(l_i = l_j)`,
//!    entropy-maximizing threshold `τ1` (Eq. 1), weak-attachment threshold
//!    `τ2 = min_i max_j w_ij` (Eq. 2), communities as filtered connected
//!    components with overlapping weak attachment. [`mod@postprocess`] and
//!    [`postprocess_bsp`].
//! 5. **Complexity model** (§IV-D): `p_c`, `Q(t)`, `η̂` and the best/worst
//!    bounds in [`complexity`], validated against measured update counts.
//!
//! The high-level entry point is [`RslpaDetector`].

pub mod barrier;
pub mod complexity;
pub mod config;
pub mod detector;
pub mod edge_counters;
pub mod incremental;
pub mod incremental_bsp;
pub mod postprocess;
pub mod postprocess_bsp;
pub mod postprocess_incremental;
pub mod propagation;
pub mod propagation_bsp;
pub mod rows;
pub mod shard;
pub mod state;
pub mod verify;

pub use barrier::{SenseBarrier, WaitReport};
pub use config::{DampingConfig, RslpaConfig};
pub use detector::{DetectionResult, RslpaDetector};
pub use edge_counters::{
    AssemblyReport, BoundaryCache, BoundaryShipReport, CounterPartition, EdgeCounters,
    PartitionCollect,
};
pub use incremental::{apply_correction, apply_correction_damped, CascadeDamper, UpdateReport};
pub use postprocess::{postprocess, PostprocessResult};
pub use postprocess_incremental::{result_from_weights, IncrementalPostprocess};
pub use propagation::run_propagation;
pub use rows::{HistRow, HistRows};
pub use shard::{
    build_mesh, Envelope, MailboxPort, MeshExchangeReport, MeshPoisoner, ShardFlushReport,
    ShardMsg, ShardRepairState, VertexRowData,
};
pub use state::LabelState;
