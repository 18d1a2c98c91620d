//! Sharded execution's data layer: N workers, N switch programs, one
//! master.
//!
//! The paper's deployment model (§2) is inherently sharded: data is
//! partitioned across workers, each worker's traffic is pruned locally at
//! its switch, and the master completes the query from the pruned union.
//! This module holds the pieces every sharded run shares:
//!
//! 1. **Route** — [`route_range_projected`] sends every row of an input
//!    table to one of `N` shards by a [`Sharder`] (hash or range,
//!    [`ShardPartitioner`]) over a per-query routing key
//!    ([`routing_keys`](crate::routing_keys)): the group/join key for
//!    keyed queries (which makes keyed merges exact), the order column for
//!    TOP N, a row-id hash for scans and skylines.
//! 2. **Execute** — each shard runs the *unchanged* generic executor
//!    ([`Cluster::run_cheetah`](crate::Cluster::run_cheetah)) over its slice, with its own planned
//!    `Pipeline`-backed switch program. The two resident executors that
//!    fan the shards out (pooled barrier and streamed) live in
//!    `cheetah-runtime`, next to `route_once`, the one step that routes a
//!    query's tables into their resident slices.
//! 3. **Merge** — the master merges the shard outputs with the
//!    per-operator semantics of
//!    [`merge_shard_outputs`](crate::merge_shard_outputs) (re-prune /
//!    key-union / count-sum), and the modelled ingest cost of the
//!    concurrent survivor streams comes from [`MasterIngestModel`] with
//!    §4.6's shard fan-in.
//!
//! The equivalence contract is `Q(merge(shards(D))) = Q(D)` for every
//! query shape, shard count, and partitioner — enforced by the
//! `shard_contract` test suite (a named CI gate, like the pruning
//! contract).

use crate::query::QueryOutput;
use crate::table::{Column, Partition, Table};
use crate::value::DataType;
use cheetah_core::plan::ShardPlan;
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_net::{ExecBreakdown, MasterIngestModel};
use cheetah_switch::ProgramStats;

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
    /// The planner's plan, when the layout was planner-chosen; `None`
    /// for hand-picked specs.
    pub plan: Option<ShardPlan>,
}

/// Route rows `[lo, hi)` of `table` (by global row index) to
/// `sharder.shards()` single-partition sub-tables, using the precomputed
/// per-row routing `keys`. Every column travels; shards that receive no
/// rows become empty tables (one empty partition), which the executor
/// handles like any degenerate input.
///
/// A thin wrapper over [`route_range_projected`] with every column
/// selected, so there is one routing loop. A `[lo, hi)` window lets a
/// caller cut a multi-round streamed layout, one window per input round.
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
/// Pair it with [`DbQuery::projected`](crate::DbQuery::projected) over
/// [`DbQuery::columns_read`](crate::DbQuery::columns_read): the
/// renumbered query reads the same cells from the narrow slices as the
/// original reads from the full table, so outputs, pruning counters and
/// wire accounting are unchanged while the routing pass and the resident
/// slices pay only for the columns the query reads. A partition's row count comes from its columns, so with `cols`
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{fixed_sharder, routing_keys};
    use crate::query::DbQuery;
    use crate::testutil::test_table;

    /// Rows per shard of `q`'s left stream under a fixed `spec`.
    fn loads(q: &DbQuery, t: &Table, spec: &ShardSpec) -> Vec<usize> {
        let seed = 7;
        let keys = routing_keys(q, 0, t, seed);
        let sharder = fixed_sharder(spec, seed, &[&keys]);
        route_range(t, &keys, &sharder, 0, t.rows()).iter().map(Table::rows).collect()
    }

    #[test]
    fn range_routing_fits_observed_key_bounds() {
        // Encoded small ints cluster just above 2⁶³; a naive full-space
        // range split would put every row on one shard. Fitted bounds
        // must spread them over populated spans.
        let t = test_table(4_000, 4);
        let spec = ShardSpec::new(4, ShardPartitioner::Range);
        let topn = loads(&DbQuery::TopN { order_col: 1, n: 10 }, &t, &spec);
        assert_eq!(topn.iter().sum::<usize>(), 4_000);
        assert!(topn.iter().filter(|&&r| r > 0).count() >= 3, "range spans: {topn:?}");
        // String fingerprints fill only the lower half of the u64 space;
        // fitted bounds must still populate the upper shards.
        let distinct = loads(&DbQuery::Distinct { col: 0 }, &t, &spec);
        assert!(
            distinct.iter().filter(|&&r| r > 0).count() >= 3,
            "string-keyed range spans must be populated: {distinct:?}"
        );
    }

    #[test]
    fn projected_routing_keeps_rows_and_only_the_chosen_columns() {
        let t = test_table(1_000, 3);
        let keys: Vec<u64> = (0..1_000u64).collect();
        let sharder = Sharder::new(ShardPartitioner::Hash, 3, 9);
        let full = route_range(&t, &keys, &sharder, 0, 1_000);
        let narrow = route_range_projected(&t, &[2, 0], &keys, &sharder, 0, 1_000);
        for (f, n) in full.iter().zip(&narrow) {
            assert_eq!(f.rows(), n.rows());
            assert_eq!(n.fields(), &[t.fields()[2].clone(), t.fields()[0].clone()]);
        }
        let mid = route_range(&t, &keys, &sharder, 250, 750);
        assert_eq!(mid.iter().map(Table::rows).sum::<usize>(), 500);
        let none = route_range(&t, &keys, &sharder, 400, 400);
        assert_eq!(none.iter().map(Table::rows).sum::<usize>(), 0);
        assert_eq!(none.len(), 3, "every shard gets a (possibly empty) table");
    }
}
