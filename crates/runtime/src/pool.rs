//! A persistent shard-worker pool, and the barrier executor that runs on
//! it.
//!
//! Spawning one thread per shard per query, and tearing them all down at
//! the join, costs a measurable slice of a small query (thousands of
//! reps over a few thousand rows at smoke scale). This module keeps both
//! the spawn and the per-run allocation churn out of the per-query path:
//!
//! * [`WorkerPool`] owns long-lived worker threads fed through one
//!   shared injector queue. Spawning a job is a channel send, not a
//!   `pthread_create`.
//! * Each worker owns a [`WorkerScratch`] whose arena allocations (the
//!   [`FrameBuilder`] behind survivor-batch framing) survive from query
//!   to query, so steady-state framing allocates nothing.
//! * [`PooledExecution`] is the barrier executor: each shard's resident
//!   slice runs [`Cluster::run_cheetah`] as a pool job, the master joins
//!   them all and merges the outputs at the master. The
//!   streamed executor ([`crate::StreamedExecution`]) runs its shard
//!   workers on the same pool.
//!
//! The pool is deliberately dumb: no work stealing, no priorities, one
//! `Mutex<Receiver>` that each idle worker takes in turn (the lock is
//! released while a job runs, so jobs distribute to whichever worker is
//! free). Jobs must not depend on *which* worker runs them; anything a
//! job blocks on (e.g. a bounded survivor channel) must be drained by
//! the thread that submitted it, which keeps the pool deadlock-free
//! even at one worker.

use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_db::{
    merge_shard_outputs, CheetahRun, Cluster, DbQuery, ExecBreakdown, MasterIngestModel,
    QueryOutput, ShardStats, ShardedRun, Table,
};
use cheetah_net::FrameBuilder;
use cheetah_switch::ProgramStats;
use cheetah_telemetry::SpanContext;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-worker reusable state, handed to every job the worker runs.
///
/// The point of the pool is that this outlives queries: the frame
/// builder's arena and offset column keep their high-water-mark
/// capacity, so a steady stream of survivor batches stops allocating
/// after warm-up.
pub struct WorkerScratch {
    /// Survivor-batch frame builder; `finish()` leaves capacity behind
    /// for the next frame.
    pub frames: FrameBuilder,
}

impl WorkerScratch {
    fn new() -> Self {
        Self { frames: FrameBuilder::new() }
    }
}

type Job = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// A fixed-size pool of persistent shard workers.
///
/// Dropping a pool closes the injector; workers finish their current
/// job and exit. The [`global`](WorkerPool::global) pool is never
/// dropped — its workers live for the process.
pub struct WorkerPool {
    injector: Mutex<mpsc::Sender<Job>>,
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("cheetah-pool-{i}"))
                .spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    loop {
                        // Take the next job while holding the lock, then
                        // release it for the duration of the job.
                        let job = match rx.lock().expect("pool injector poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        };
                        job(&mut scratch);
                    }
                })
                .expect("spawn pool worker");
        }
        Self { injector: Mutex::new(tx), workers }
    }

    /// The process-wide pool both executors run on. Sized
    /// at `max(available_parallelism, 8)` so every shard count the
    /// bench sweeps exercises can be in flight at once.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            WorkerPool::new(cores.max(8))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue a job. Returns immediately; the job runs on whichever
    /// worker next goes idle.
    pub fn spawn(&self, job: impl FnOnce(&mut WorkerScratch) + Send + 'static) {
        self.injector
            .lock()
            .expect("pool injector poisoned")
            .send(Box::new(job))
            .expect("pool workers alive");
    }
}

/// The pooled barrier executor, implemented for [`Cluster`] —
/// `use cheetah_runtime::PooledExecution` brings
/// `cluster.run_cheetah_presplit(..)` into scope.
pub trait PooledExecution {
    /// Run `q` over shard slices that were already routed — the
    /// deployment model's steady state: each worker holds its slice of
    /// the table from ingest on, so the shuffle is not part of query
    /// latency. Each shard runs as a pool job, the master joins them all
    /// and merges. Handing workers `Arc` clones keeps repeat queries over
    /// the same layout allocation-free on the input side.
    ///
    /// Route the slices with [`route_once`](crate::route_once), which
    /// also renumbers the query for them; `RoutedLayout::run_pooled`
    /// makes this call. Output equals `run_baseline`'s for every query
    /// shape.
    fn run_cheetah_presplit(
        &self,
        q: &DbQuery,
        left_shards: &[Arc<Table>],
        right_shards: Option<&[Arc<Table>]>,
        ingest: &MasterIngestModel,
        decision: PlanDecision,
        plan: Option<ShardPlan>,
    ) -> cheetah_core::Result<ShardedRun>;
}

impl PooledExecution for Cluster {
    fn run_cheetah_presplit(
        &self,
        q: &DbQuery,
        left_shards: &[Arc<Table>],
        right_shards: Option<&[Arc<Table>]>,
        ingest: &MasterIngestModel,
        decision: PlanDecision,
        plan: Option<ShardPlan>,
    ) -> cheetah_core::Result<ShardedRun> {
        let shards = left_shards.len();
        if let Some(r) = right_shards {
            assert_eq!(r.len(), shards, "left/right shard layouts must agree");
        }
        let rows_per_shard: Vec<u64> = (0..shards)
            .map(|s| left_shards[s].rows() as u64 + right_shards.map_or(0, |v| v[s].rows() as u64))
            .collect();

        // Jobs must be 'static: each takes an `Arc` handle onto its slice
        // plus a clone of the (configuration-only, cheap) cluster and query.
        // The submitting thread's span context (the session's `execute`
        // span, when one is entered) rides into each job the same way, so
        // per-shard `worker` spans land in the query's trace even though
        // they run on pool threads.
        let trace_ctx = SpanContext::current();
        let pool = WorkerPool::global();
        let (tx, rx) = mpsc::channel();
        for (shard, l) in left_shards.iter().enumerate() {
            let l = Arc::clone(l);
            let r = right_shards.map(|v| Arc::clone(&v[shard]));
            let cluster = self.clone();
            let q = q.clone();
            let tx = tx.clone();
            let trace_ctx = trace_ctx.clone();
            pool.spawn(move |_scratch| {
                let span = trace_ctx.as_ref().map(|ctx| {
                    let mut s = ctx.child("worker");
                    s.attr("shard", shard);
                    s
                });
                let run = cluster.run_cheetah(&q, &l, r.as_deref());
                if let (Some(mut s), Ok(run)) = (span, run.as_ref()) {
                    s.attr("rows", l.rows());
                    s.attr("entries_to_master", run.breakdown.entries_to_master);
                }
                tx.send((shard, run)).ok();
            });
        }
        drop(tx);

        let mut runs: Vec<Option<_>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            let (shard, run) = rx.recv().expect("shard worker panicked");
            runs[shard] = Some(run?);
        }
        let runs: Vec<_> = runs.into_iter().map(|r| r.expect("every shard reported")).collect();
        let merge_span = trace_ctx.as_ref().map(|ctx| ctx.child("merge"));
        let finished = finish_sharded(q, runs, &rows_per_shard, ingest, decision, plan);
        if let Some(mut s) = merge_span {
            s.attr("shards", shards);
        }
        Ok(finished)
    }
}

/// Merge and account a set of per-shard executor runs into a
/// [`ShardedRun`] — the master-side tail of the barrier dataflow.
/// `rows_per_shard[s]` is the rows routed to shard `s` (left + right
/// stream); `runs[s]` is that shard's completed executor run.
fn finish_sharded(
    q: &DbQuery,
    runs: Vec<CheetahRun>,
    rows_per_shard: &[u64],
    ingest: &MasterIngestModel,
    decision: PlanDecision,
    plan: Option<ShardPlan>,
) -> ShardedRun {
    assert_eq!(runs.len(), rows_per_shard.len(), "one row count per shard run");
    let per_shard: Vec<ShardStats> = runs
        .iter()
        .zip(rows_per_shard)
        .map(|(run, &rows)| ShardStats {
            rows,
            worker_seconds: run.breakdown.worker_seconds,
            master_seconds: run.breakdown.master_seconds,
            worker_wire_bytes: run.breakdown.worker_wire_bytes,
            master_wire_bytes: run.breakdown.master_wire_bytes,
            entries_to_master: run.breakdown.entries_to_master,
            seen: run.switch_stats.seen,
            pruned: run.switch_stats.pruned,
        })
        .collect();
    let entries_per_shard: Vec<u64> = per_shard.iter().map(|s| s.entries_to_master).collect();
    let switch_stats = runs.iter().fold(ProgramStats::default(), |mut acc, r| {
        acc.seen += r.switch_stats.seen;
        acc.pruned += r.switch_stats.pruned;
        acc.forwarded += r.switch_stats.forwarded;
        acc
    });
    let passes = runs.iter().map(|r| r.breakdown.passes).max().unwrap_or(1);
    let rules = runs.iter().map(|r| r.rules).max().unwrap_or(0);
    // Every shard ran the same cluster, so the first run's backend speaks
    // for all of them (a compiled-requested run that fell back records
    // the fallback here too).
    let backend = runs.first().map(|r| r.breakdown.backend).unwrap_or_default();

    // Master: merge the shard outputs. Stats are extracted above so
    // the outputs move into the merge — the timed window is the
    // re-prune/key-union work alone, not avoidable clones.
    let outputs: Vec<QueryOutput> = runs.into_iter().map(|r| r.output).collect();
    let t0 = Instant::now();
    let output = merge_shard_outputs(q, outputs);
    let merge_seconds = t0.elapsed().as_secs_f64();

    let breakdown = ExecBreakdown {
        // Shard workers run concurrently: the slowest bounds the phase.
        worker_seconds: per_shard.iter().map(|s| s.worker_seconds).fold(0.0, f64::max),
        // The master is one machine: shard completions + merge add up.
        master_seconds: per_shard.iter().map(|s| s.master_seconds).sum::<f64>() + merge_seconds,
        worker_wire_bytes: per_shard.iter().map(|s| s.worker_wire_bytes).max().unwrap_or(0),
        master_wire_bytes: per_shard.iter().map(|s| s.master_wire_bytes).sum(),
        entries_to_master: entries_per_shard.iter().sum(),
        passes,
        shards: rows_per_shard.len() as u32,
        master_ingest_seconds: ingest.blocking_latency_sharded(&entries_per_shard),
        plan: Some(decision),
        overlap_seconds: 0.0,
        backend,
        ..ExecBreakdown::default()
    };
    ShardedRun { output, breakdown, switch_stats, per_shard, merge_seconds, rules, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{route_once, Sharding};
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{DataType, ShardSpec, TableBuilder, Value};

    fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new(
            "t",
            vec![("key".into(), DataType::Str), ("a".into(), DataType::Int)],
            256,
        );
        let mut x = 9u64;
        for _ in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b.push_row(vec![Value::Str(format!("key-{}", x % 53)), Value::Int((x % 7_919) as i64)]);
        }
        b.build()
    }

    #[test]
    fn pool_reuse_is_bit_identical_across_back_to_back_variants() {
        // The pool's scratch state (frame arenas, encode buffers) must
        // never leak between queries: interleave different variants
        // back-to-back on the same global pool and require every repeat
        // to reproduce its first answer exactly.
        let cluster = Cluster::default();
        let t = table(1_500);
        let spec = ShardSpec::new(4, ShardPartitioner::Hash);
        let layouts: Vec<_> = [
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::TopN { order_col: 1, n: 10 },
        ]
        .iter()
        .map(|q| {
            let routed = route_once(q, &t, None, cluster.tuning.seed, Sharding::Fixed(spec), None);
            (cluster.run_baseline(q, &t, None).output, routed)
        })
        .collect();
        for round in 0..3 {
            for (base, routed) in &layouts {
                let pooled = routed.run_pooled(&cluster).unwrap();
                let streamed = routed.run_streamed(&cluster).unwrap();
                assert_eq!(&pooled.output, base, "{} round {round}", routed.query.kind());
                assert_eq!(&streamed.output, base, "{} round {round}", routed.query.kind());
            }
        }
    }

    #[test]
    fn private_pool_runs_jobs_and_shuts_down_on_drop() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.spawn(move |scratch| {
                // Exercise the per-worker scratch so reuse is covered.
                scratch.frames.begin(0, u64::from(i));
                scratch.frames.push(&i.to_be_bytes());
                let frame = scratch.frames.finish();
                tx.send((i, frame.len())).ok();
            });
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().map(|(i, _)| i).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        drop(pool); // workers exit; nothing to assert beyond not hanging
    }
}
