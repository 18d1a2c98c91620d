//! # cheetah-runtime — route once, run resident
//!
//! In the paper's deployment (§2) rows are partitioned across workers
//! once, each worker's switch prunes its slice, and the master completes
//! the query. This crate is that dataflow, in two steps:
//!
//! 1. [`route_once`] turns a query's tables into resident per-shard
//!    slices — routing keys, a fixed or planned sharder, slices projected
//!    to the columns the query reads — and wraps the same slices as a
//!    one-round [`StreamLayout`].
//! 2. One of two executors runs the slices, as often as needed, on the
//!    persistent [`WorkerPool`]:
//!    * the **pooled barrier** executor
//!      ([`PooledExecution::run_cheetah_presplit`]) runs every shard as a
//!      pool job and merges once all of them have finished;
//!    * the **streamed** executor
//!      ([`StreamedExecution::run_cheetah_streamed_resident`]) streams
//!      each shard's survivors in batches into an incremental merge while
//!      slower shards are still pruning.
//!
//! ```text
//!   tables ──route_once──▶ resident slices ──┬─▶ pooled barrier ─▶ join ─▶ merge
//!                                            └─▶ streamed workers
//!                                                  │ survivor batches
//!                                                  ▼ (bounded channel)
//!                                                master merge plane
//!                                                MergeState::ingest_batch
//! ```
//!
//! The serving session (`cheetah-serve`) picks between the two executors
//! per request with its path chooser; both run [`Cluster::run_cheetah`]
//! per shard, so they answer identically.
//!
//! * **Overlap** — streamed workers decompose each completed slice into
//!   [`MergeItem`](cheetah_db::MergeItem)s and stream them in
//!   [`SurvivorBatch`](cheetah_net::SurvivorBatch) frames over a
//!   *bounded* channel (backpressure is the flow control); the master
//!   folds batches into an incremental
//!   [`MergeState`](cheetah_db::MergeState) while slow shards are still
//!   pruning. The measured overlap is reported as
//!   `ExecBreakdown::overlap_seconds`.
//! * **Cross-shard batching** — the batch size comes off the ingest
//!   model's fan-in curve
//!   ([`suggested_batch`](cheetah_net::MasterIngestModel::suggested_batch)):
//!   big enough to amortize framing, small enough that the aggregate
//!   in-flight entries keep the merge plane in its linear service regime.
//! * **Faulty channel** — [`StreamLayout::with_fault`] sends every
//!   survivor frame across a seeded lossy link and runs the §7.2
//!   go-back-N machinery for real.
//!
//! ## When overlap pays
//!
//! Overlap buys exactly the merge work that the barrier would have
//! serialized **behind the slowest shard**. It pays when
//!
//! 1. shard completion times are *spread* — skewed loads
//!    (`cheetah_workloads::skew`) or a straggling worker; and
//! 2. the master has real per-survivor merge work to hide — large
//!    survivor sets (low pruning rates) or expensive folds (SKYLINE
//!    dominance, wide GROUP BY key spaces).
//!
//! On a perfectly balanced cluster with heavy pruning there is nothing to
//! hide: every worker finishes together and the pruned stream merges in
//! microseconds — the streamed run then matches the barrier run, paying
//! only framing overhead. The `runtime` bench experiment measures both
//! regimes on the zipf(1.5) and single-hot-key adversaries.
//!
//! ## Input rounds
//!
//! A [`StreamLayout`] built with [`StreamLayout::from_units`] may cut the
//! input into several rounds, each a separate executor run per shard.
//! That is only correct when the master merge holds under any assignment
//! of rows to executor runs
//! ([`DbQuery::merge_routing_agnostic`](cheetah_db::DbQuery::merge_routing_agnostic)):
//! re-prune merges, count sums, and GROUP BY MAX qualify. HAVING (local
//! sum + threshold must see every row of a key) and JOIN (both streams
//! must meet inside one run) are refused a multi-round layout with a
//! typed error.
//!
//! [`Cluster::run_cheetah`]: cheetah_db::Cluster::run_cheetah

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod route;
pub mod runtime;

pub use pool::{PooledExecution, WorkerPool, WorkerScratch};
pub use route::{route_once, route_rounds, RoutedLayout, RoutingKeys, Sharding};
pub use runtime::{FaultSpec, StreamLayout, StreamedExecution, StreamedRun};
