//! Sharded parallel execution: N workers, N switch programs, one master.
//!
//! The paper's deployment model (§2) is inherently sharded: data is
//! partitioned across workers, each worker's traffic is pruned locally at
//! its switch, and the master completes the query from the pruned union.
//! [`Cluster::run_cheetah_sharded`] makes that structural:
//!
//! 1. **Route** — every row of the input table(s) is routed to one of `N`
//!    shards by a [`Sharder`] (hash or range, [`ShardPartitioner`]) over a
//!    per-query routing key: the group/join key for keyed queries (which
//!    makes keyed merges exact), the order column for TOP N, a row-id hash
//!    for scans and skylines.
//! 2. **Execute** — each shard runs the *unchanged* generic executor
//!    ([`Cluster::execute`]) on a `std::thread::scope` worker: its own
//!    planned `Pipeline`-backed switch program, its own serialize → prune
//!    → complete dataflow over its slice.
//! 3. **Merge** — the master merges the shard outputs with the
//!    per-operator semantics of [`merge_shard_outputs`]
//!    (re-prune / key-union / count-sum), and the modelled ingest cost of
//!    the concurrent survivor streams comes from [`MasterIngestModel`]
//!    with §4.6's shard fan-in.
//!
//! The equivalence contract is `Q(merge(shards(D))) = Q(D)` for every
//! query shape, shard count, and partitioner — enforced by the
//! `shard_contract` test suite (a named CI gate, like the pruning
//! contract).

use crate::engine::{CheetahRun, Cluster};
use crate::master::merge_shard_outputs;
use crate::planner::{fixed_sharder, routing_keys};
use crate::query::{DbQuery, QueryOutput};
use crate::table::{Column, Partition, Table};
use crate::value::DataType;
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_net::{ExecBreakdown, MasterIngestModel};
use cheetah_switch::ProgramStats;
use std::time::Instant;

/// How to shard a query's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Worker shard count.
    pub shards: usize,
    /// Row-routing family.
    pub partitioner: ShardPartitioner,
    /// Master ingest model applied to the merged survivor streams.
    pub ingest: MasterIngestModel,
}

impl ShardSpec {
    /// `shards` workers with the given partitioner and the default rack
    /// ingest model.
    pub fn new(shards: usize, partitioner: ShardPartitioner) -> Self {
        Self { shards, partitioner, ingest: MasterIngestModel::default_rack() }
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::new(4, ShardPartitioner::Hash)
    }
}

/// Per-shard observability of one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Rows routed to this shard (left + right stream).
    pub rows: u64,
    /// The shard worker's serialize/compute seconds.
    pub worker_seconds: f64,
    /// The shard's completion seconds (its local `complete` run).
    pub master_seconds: f64,
    /// Bytes the shard's busiest worker put on its uplink.
    pub worker_wire_bytes: u64,
    /// Bytes this shard contributed to the master downlink.
    pub master_wire_bytes: u64,
    /// Survivor entries this shard streamed to the master.
    pub entries_to_master: u64,
    /// Entries this shard's switch saw.
    pub seen: u64,
    /// Entries this shard's switch pruned.
    pub pruned: u64,
}

/// Result of a sharded Cheetah execution.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Merged, normalized query output — equal to the unsharded run's.
    pub output: QueryOutput,
    /// Aggregated phase breakdown: slowest shard's worker phase, summed
    /// master-side completion + merge, per-shard-summed master bytes, and
    /// the modelled shard-fan-in ingest latency.
    pub breakdown: ExecBreakdown,
    /// Switch statistics summed across the shard programs.
    pub switch_stats: ProgramStats,
    /// Per-shard byte/entry accounting (the §4.6 skew story).
    pub per_shard: Vec<ShardStats>,
    /// Master-side merge time (the re-prune/key-union stage alone).
    pub merge_seconds: f64,
    /// Control-plane rules of the largest shard program.
    pub rules: usize,
    /// The planner's plan, when this run came through
    /// [`Cluster::run_cheetah_planned`]; `None` for hand-picked specs.
    pub plan: Option<ShardPlan>,
}

/// Route rows `[lo, hi)` of `table` (by global row index) to
/// `sharder.shards()` single-partition sub-tables, using the precomputed
/// per-row routing `keys`. Every column travels; shards that receive no
/// rows become empty tables (one empty partition), which the executor
/// handles like any degenerate input.
///
/// A thin wrapper over [`route_range_projected`] with every column
/// selected, so there is one routing loop. Public because the streamed
/// runtime's router dispatches the same splitting in *rounds* — one
/// routing loop, shared by every twin, so a cadence or empty-shard fix can
/// never diverge the dataflows.
pub fn route_range(
    table: &Table,
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let all: Vec<usize> = (0..table.fields().len()).collect();
    route_range_projected(table, &all, keys, sharder, lo, hi)
}

/// The projected router: route rows `[lo, hi)` of `table` like
/// [`route_range`], but copy only the columns `cols`, in that order. Shard
/// table `s` has the schema `cols.map(|c| table.fields()[c])`.
///
/// Pair it with [`DbQuery::projected`] over
/// [`DbQuery::columns_read`]: the renumbered query reads the same cells
/// from the narrow slices as the original reads from the full table, so
/// outputs, pruning counters and wire accounting are unchanged while the
/// routing pass and the resident slices pay only for the columns the query
/// reads. A partition's row count comes from its columns, so with `cols`
/// empty every shard table has zero rows.
pub fn route_range_projected(
    table: &Table,
    cols: &[usize],
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let shards = sharder.shards();
    let fields: Vec<(String, DataType)> = cols.iter().map(|&c| table.fields()[c].clone()).collect();
    let empty_cols = || -> Vec<Column> {
        fields
            .iter()
            .map(|(_, t)| match t {
                DataType::Int => Column::Int(Vec::new()),
                DataType::Str => Column::Str(Vec::new()),
            })
            .collect()
    };
    let mut out: Vec<Vec<Column>> = (0..shards).map(|_| empty_cols()).collect();
    // Scratch: local row indices per shard, recomputed per partition. Rows
    // move column-at-a-time — one type dispatch per (shard, column) instead
    // of one boxed `Value` per cell, which is what the old row builder paid.
    let mut picks: Vec<Vec<u32>> = vec![Vec::new(); shards];
    let mut base = 0usize;
    for p in table.partitions() {
        let rows = p.rows();
        if base + rows > lo && base < hi {
            let from = lo.saturating_sub(base);
            let to = rows.min(hi - base);
            for list in &mut picks {
                list.clear();
            }
            for r in from..to {
                picks[sharder.shard_of(keys[base + r])].push(r as u32);
            }
            for (s, list) in picks.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                for (dst_col, &c) in out[s].iter_mut().zip(cols) {
                    match (dst_col, p.column(c)) {
                        (Column::Int(dst), Column::Int(src)) => {
                            dst.extend(list.iter().map(|&r| src[r as usize]));
                        }
                        (Column::Str(dst), Column::Str(src)) => {
                            dst.extend(list.iter().map(|&r| src[r as usize].clone()));
                        }
                        _ => unreachable!("partition column type drifted from the schema"),
                    }
                }
            }
        }
        base += rows;
        if base >= hi {
            break;
        }
    }
    out.into_iter()
        .map(|cols| Table::from_partition(table.name(), fields.clone(), Partition::new(cols)))
        .collect()
}

/// Split the whole `table` into shard tables — the barrier paths' single
/// "round".
fn split_stream(table: &Table, keys: &[u64], sharder: &Sharder) -> Vec<Table> {
    route_range(table, keys, sharder, 0, table.rows())
}

impl Cluster {
    /// Execute `q` sharded: route rows to `spec.shards` workers, run the
    /// generic pruned executor per shard on scoped threads (each with its
    /// own planned switch program), and merge at the master.
    ///
    /// Output equals [`run_cheetah`](Cluster::run_cheetah)'s for every
    /// query shape — the `Q(merge(shards(D))) = Q(D)` contract.
    ///
    /// **Deprecated**: prefer the serving plane's front door — build a
    /// `cheetah_serve::QueryRequest` (pin a shard count with
    /// `.shards(n)`) and call `Session::run_blocking` /
    /// `Session::submit`. This entry point stays as the shim the
    /// serving contract gates verify bit-identity against.
    #[doc(hidden)]
    pub fn run_cheetah_sharded(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
        spec: &ShardSpec,
    ) -> cheetah_core::Result<ShardedRun> {
        let seed = self.tuning.seed;
        let left_keys = routing_keys(q, 0, left, seed);
        let right_keys = right.map(|r| routing_keys(q, 1, r, seed));
        let key_slices: Vec<&[u64]> =
            std::iter::once(left_keys.as_slice()).chain(right_keys.as_deref()).collect();
        let sharder = fixed_sharder(spec, seed, &key_slices);
        self.run_cheetah_routed(
            q,
            left,
            right,
            &left_keys,
            right_keys.as_deref(),
            &sharder,
            &spec.ingest,
            PlanDecision::Fixed(spec.partitioner),
            None,
        )
    }

    /// The shared sharded dataflow behind both the fixed-spec and the
    /// planned entry points: split by precomputed routing keys, run the
    /// generic executor per shard, merge at the master, account.
    ///
    /// Public so callers that already hold routing keys and a fitted
    /// sharder (the perf-smoke harness, the runtime's pooled barrier
    /// path) can time *execution* without re-paying key derivation and
    /// sharder fitting per run.
    ///
    /// **Deprecated**: prefer the serving plane's front door — the
    /// `Session` keeps routed layouts resident in its layout cache, so
    /// a `cheetah_serve::QueryRequest` gets the same
    /// pay-execution-only behaviour without hand-threading keys and
    /// sharders. This entry point stays as the shim the serving
    /// contract gates verify bit-identity against.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn run_cheetah_routed(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
        left_keys: &[u64],
        right_keys: Option<&[u64]>,
        sharder: &Sharder,
        ingest: &MasterIngestModel,
        decision: PlanDecision,
        plan: Option<ShardPlan>,
    ) -> cheetah_core::Result<ShardedRun> {
        let shards = sharder.shards();
        let left_shards = split_stream(left, left_keys, sharder);
        let right_shards =
            right.map(|r| split_stream(r, right_keys.expect("keys computed"), sharder));
        let rows_per_shard: Vec<u64> = (0..shards)
            .map(|s| {
                left_shards[s].rows() as u64
                    + right_shards.as_ref().map_or(0, |v| v[s].rows() as u64)
            })
            .collect();

        // One scoped worker per shard; each runs the unchanged generic
        // executor over its slice, planning its own Pipeline instance.
        let results: Vec<cheetah_core::Result<CheetahRun>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let l = &left_shards[s];
                    let r = right_shards.as_ref().map(|v| &v[s]);
                    sc.spawn(move || self.run_cheetah(q, l, r))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });
        let runs: Vec<CheetahRun> = results.into_iter().collect::<cheetah_core::Result<_>>()?;
        Ok(finish_sharded(q, runs, &rows_per_shard, ingest, decision, plan))
    }
}

/// Merge and account a set of per-shard executor runs into a
/// [`ShardedRun`] — the master-side tail of every barrier dataflow.
/// `rows_per_shard[s]` is the rows routed to shard `s` (left + right
/// stream); `runs[s]` is that shard's completed executor run.
///
/// Public so the runtime's pooled barrier twin reuses exactly this
/// accounting: however the per-shard runs were executed (scoped threads
/// here, leased pool workers there), the merge semantics and the phase
/// arithmetic must stay one implementation.
pub fn finish_sharded(
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
        replans: 0,
        backend,
        ..ExecBreakdown::default()
    };
    ShardedRun { output, breakdown, switch_stats, per_shard, merge_seconds, rules, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{all_queries, test_table};

    #[test]
    fn sharded_equals_unsharded_for_every_unary_query() {
        let cluster = Cluster::default();
        let t = test_table(3_000, 4);
        for q in all_queries() {
            let single = cluster.run_cheetah(&q, &t, None).unwrap();
            for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
                let spec = ShardSpec::new(4, partitioner);
                let sharded = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
                assert_eq!(
                    single.output,
                    sharded.output,
                    "{} diverged under {} sharding",
                    q.kind(),
                    partitioner.name()
                );
            }
        }
    }

    #[test]
    fn one_shard_degenerates_to_the_unsharded_run() {
        let cluster = Cluster::default();
        let t = test_table(2_000, 3);
        let q = DbQuery::Distinct { col: 0 };
        let single = cluster.run_cheetah(&q, &t, None).unwrap();
        let spec = ShardSpec::new(1, ShardPartitioner::Hash);
        let sharded = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
        assert_eq!(single.output, sharded.output);
        assert_eq!(sharded.breakdown.shards, 1);
        assert_eq!(sharded.per_shard.len(), 1);
        assert_eq!(sharded.per_shard[0].rows, 2_000);
    }

    #[test]
    fn join_co_partitioning_sums_to_the_global_pair_count() {
        let cluster = Cluster::default();
        let l = test_table(2_000, 2);
        let r = test_table(1_500, 3);
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let single = cluster.run_cheetah(&q, &l, Some(&r)).unwrap();
        for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
            let spec = ShardSpec::new(5, partitioner);
            let sharded = cluster.run_cheetah_sharded(&q, &l, Some(&r), &spec).unwrap();
            assert_eq!(single.output, sharded.output, "{}", partitioner.name());
        }
    }

    #[test]
    fn range_routing_fits_observed_key_bounds() {
        // Encoded small ints cluster just above 2⁶³; a naive full-space
        // range split would put every row on one shard. Fitted bounds
        // must spread them over populated spans.
        let cluster = Cluster::default();
        let t = test_table(4_000, 4);
        let q = DbQuery::TopN { order_col: 1, n: 10 };
        let spec = ShardSpec::new(4, ShardPartitioner::Range);
        let run = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
        let loads: Vec<u64> = run.per_shard.iter().map(|s| s.rows).collect();
        let nonempty = loads.iter().filter(|&&r| r > 0).count();
        assert!(nonempty >= 3, "range spans must be populated: {loads:?}");
        // String fingerprints fill only the lower half of the u64 space;
        // fitted bounds must still populate the upper shards.
        let qd = DbQuery::Distinct { col: 0 };
        let run = cluster.run_cheetah_sharded(&qd, &t, None, &spec).unwrap();
        let loads: Vec<u64> = run.per_shard.iter().map(|s| s.rows).collect();
        assert!(
            loads.iter().filter(|&&r| r > 0).count() >= 3,
            "string-keyed range spans must be populated: {loads:?}"
        );
    }

    #[test]
    fn per_shard_accounting_sums_to_the_breakdown() {
        let cluster = Cluster::default();
        let t = test_table(4_000, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let spec = ShardSpec::default();
        let run = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
        assert_eq!(run.per_shard.len(), 4);
        assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 4_000);
        assert_eq!(
            run.breakdown.master_wire_bytes,
            run.per_shard.iter().map(|s| s.master_wire_bytes).sum::<u64>()
        );
        assert_eq!(
            run.breakdown.entries_to_master,
            run.per_shard.iter().map(|s| s.entries_to_master).sum::<u64>()
        );
        assert_eq!(run.switch_stats.seen, run.per_shard.iter().map(|s| s.seen).sum::<u64>());
        assert!(run.breakdown.master_ingest_seconds > 0.0, "ingest model must be threaded");
    }

    #[test]
    fn empty_table_shards_cleanly() {
        let cluster = Cluster::default();
        let t = crate::table::TableBuilder::new(
            "empty",
            vec![
                ("agent".into(), crate::value::DataType::Str),
                ("revenue".into(), crate::value::DataType::Int),
            ],
            8,
        )
        .build();
        let q = DbQuery::Distinct { col: 0 };
        let spec = ShardSpec::new(7, ShardPartitioner::Range);
        let run = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
        assert_eq!(run.output, QueryOutput::Values(vec![]));
        assert_eq!(run.breakdown.entries_to_master, 0);
        assert_eq!(run.breakdown.master_ingest_seconds, 0.0);
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_shards() {
        let cluster = Cluster::default();
        let t = test_table(3, 1);
        let q = DbQuery::TopN { order_col: 1, n: 2 };
        let single = cluster.run_cheetah(&q, &t, None).unwrap();
        let spec = ShardSpec::new(7, ShardPartitioner::Hash);
        let run = cluster.run_cheetah_sharded(&q, &t, None, &spec).unwrap();
        assert_eq!(single.output, run.output);
        assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4, "empty shards exist");
    }
}
