//! Route once: a query's tables become resident shard slices.
//!
//! In the paper's deployment (§2) rows are partitioned across workers
//! once; each worker's switch prunes its slice and the master completes
//! the query. [`route_once`] is that partitioning step, and the one place
//! a query's tables are routed:
//!
//! 1. **keys** — every row's routing key ([`RoutingKeys`], derived a
//!    column at a time);
//! 2. **sharder** — a hand-picked spec, a plan fitted earlier, or a plan
//!    fitted now from the same keys ([`Sharding`]);
//! 3. **slices** — each input stream cut into per-shard `Arc` tables that
//!    hold only the columns the query reads ([`DbQuery::columns_read`]),
//!    the same slices wrapped as a one-round [`StreamLayout`], and the
//!    query renumbered for them ([`DbQuery::projected`]).
//!
//! The [`RoutedLayout`] then runs on either resident executor, as often
//! as needed: [`RoutedLayout::run_pooled`] (barrier) or
//! [`RoutedLayout::run_streamed`] (overlapped merge). The serving
//! session, the contract gates, the bench harness and the benches all
//! route this way. [`route_rounds`] cuts the same routing into several
//! input rounds for the streamed executor.

use crate::pool::PooledExecution;
use crate::runtime::{StreamLayout, StreamedExecution, StreamedRun};
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_db::{
    fixed_sharder, route_range, route_range_projected, routing_keys, Cluster, DbQuery,
    MasterIngestModel, ShardPlanner, ShardSpec, ShardedRun, Table,
};
use std::sync::Arc;

/// Every row's routing key, per input stream.
#[derive(Debug, Clone)]
pub struct RoutingKeys {
    /// The left stream's keys, in row order.
    pub left: Vec<u64>,
    /// The right stream's keys, for a binary query.
    pub right: Option<Vec<u64>>,
}

impl RoutingKeys {
    /// The keys of `q`'s left stream, plus its right stream's when `q` is
    /// binary and `right` is given.
    pub fn derive(q: &DbQuery, left: &Table, right: Option<&Table>, seed: u64) -> RoutingKeys {
        RoutingKeys {
            left: routing_keys(q, 0, left, seed),
            right: right.filter(|_| q.is_binary()).map(|r| routing_keys(q, 1, r, seed)),
        }
    }

    /// The key streams in stream order — what
    /// [`ShardPlanner::plan_from_keys`] samples.
    pub fn slices(&self) -> Vec<&[u64]> {
        std::iter::once(self.left.as_slice()).chain(self.right.as_deref()).collect()
    }
}

/// Where [`route_once`] gets its sharder, and the ingest model the run
/// is priced under.
#[derive(Debug, Clone)]
pub enum Sharding {
    /// A hand-picked shard count and partitioner ([`fixed_sharder`]).
    Fixed(ShardSpec),
    /// A plan fitted earlier (the serving session's plan cache hands
    /// these out).
    Plan {
        /// The fitted plan; its sharder routes the rows.
        plan: Arc<ShardPlan>,
        /// Master ingest model of the run.
        ingest: MasterIngestModel,
    },
    /// Fit a plan now, sampling the routing keys the router then uses.
    Planner(ShardPlanner),
}

/// A query's tables, routed once: the resident input of both executors.
#[derive(Clone)]
pub struct RoutedLayout {
    /// The query renumbered for the projected slices. Run this one, not
    /// the query as written: its answer, pruning counters and wire
    /// accounting equal the original's over the full tables.
    pub query: DbQuery,
    /// Per-shard left-stream slices.
    pub left: Vec<Arc<Table>>,
    /// Per-shard right-stream slices, co-partitioned (binary queries).
    pub right: Option<Vec<Arc<Table>>>,
    /// The same slices as a one-round streamed layout.
    pub stream: StreamLayout,
    /// Master ingest model the runs are priced under.
    pub ingest: MasterIngestModel,
    /// How the sharder was chosen.
    pub decision: PlanDecision,
    /// The plan, when the layout is planner-chosen.
    pub plan: Option<Arc<ShardPlan>>,
}

impl RoutedLayout {
    /// Shard count of the layout.
    pub fn shards(&self) -> usize {
        self.left.len()
    }

    /// Run the layout on the pooled barrier executor.
    pub fn run_pooled(&self, cluster: &Cluster) -> cheetah_core::Result<ShardedRun> {
        cluster.run_cheetah_presplit(
            &self.query,
            &self.left,
            self.right.as_deref(),
            &self.ingest,
            self.decision,
            self.plan.as_deref().cloned(),
        )
    }

    /// Run the layout on the streamed executor.
    pub fn run_streamed(&self, cluster: &Cluster) -> cheetah_core::Result<StreamedRun> {
        cluster.run_cheetah_streamed_resident(&self.query, &self.stream)
    }
}

/// Route `q`'s tables once: routing keys (`keys`, or derived here), then
/// the sharder `sharding` names, then per-shard slices projected to the
/// columns `q` reads, plus the one-round [`StreamLayout`] over the same
/// slices. `right` is routed only when `q` is binary.
///
/// # Panics
///
/// When `q` reads no column of a routed stream: a slice with no column
/// carries no rows. [`DbQuery::check_inputs`] rejects such a query.
pub fn route_once(
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
    seed: u64,
    sharding: Sharding,
    keys: Option<RoutingKeys>,
) -> RoutedLayout {
    let keys = keys.unwrap_or_else(|| RoutingKeys::derive(q, left, right, seed));
    let (sharder, ingest, decision, plan) = match sharding {
        Sharding::Fixed(spec) => (
            fixed_sharder(&spec, seed, &keys.slices()),
            spec.ingest,
            PlanDecision::Fixed(spec.partitioner),
            None,
        ),
        Sharding::Plan { plan, ingest } => {
            (plan.sharder.clone(), ingest, PlanDecision::Planned(plan.partitioner()), Some(plan))
        }
        Sharding::Planner(planner) => {
            let plan = Arc::new(planner.plan_from_keys(&keys.slices(), seed));
            let decision = PlanDecision::Planned(plan.partitioner());
            (plan.sharder.clone(), planner.cfg.ingest, decision, Some(plan))
        }
    };
    let split = |stream: usize, table: &Table, keys: &[u64]| -> Vec<Arc<Table>> {
        let cols = q.columns_read(stream);
        assert!(!cols.is_empty(), "{} reads no column of stream {stream}", q.kind());
        route_range_projected(table, &cols, keys, &sharder, 0, table.rows())
            .into_iter()
            .map(Arc::new)
            .collect()
    };
    let left_slices = split(0, left, &keys.left);
    let right_slices =
        right.filter(|_| q.is_binary()).zip(keys.right.as_deref()).map(|(r, rk)| split(1, r, rk));
    let stream = StreamLayout::from_units(
        vec![left_slices.clone()],
        right_slices.clone(),
        ingest,
        decision,
        plan.as_deref().cloned(),
        None,
        None,
    );
    RoutedLayout {
        query: q.projected(),
        left: left_slices,
        right: right_slices,
        stream,
        ingest,
        decision,
        plan,
    }
}

/// Route `q`'s tables under the fixed `spec` into a streamed layout of
/// `rounds` input rounds: `left` cut into `rounds` equal row windows,
/// each routed by the same keys and sharder as a one-round
/// [`route_once`] under `spec`, with the right stream of a binary `q`
/// riding round 0. The slices are full width, so the layout runs `q` as
/// written. Rounds give the merge plane survivors to fold while workers
/// are still pruning; only routing-agnostic queries
/// ([`DbQuery::merge_routing_agnostic`]) may run more than one.
pub fn route_rounds(
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
    seed: u64,
    spec: ShardSpec,
    rounds: usize,
) -> StreamLayout {
    let keys = RoutingKeys::derive(q, left, right, seed);
    let sharder = fixed_sharder(&spec, seed, &keys.slices());
    let split = |t: &Table, keys: &[u64], lo: usize, hi: usize| -> Vec<Arc<Table>> {
        route_range(t, keys, &sharder, lo, hi).into_iter().map(Arc::new).collect()
    };
    let n = left.rows();
    let units = (0..rounds).map(|r| split(left, &keys.left, r * n / rounds, (r + 1) * n / rounds));
    let right_units = right
        .filter(|_| q.is_binary())
        .zip(keys.right.as_deref())
        .map(|(r, rk)| split(r, rk, 0, r.rows()));
    let decision = PlanDecision::Fixed(spec.partitioner);
    StreamLayout::from_units(units.collect(), right_units, spec.ingest, decision, None, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{
        route_range, DataType, DbPredicate, ExecBackend, IntCmp, LikePattern, TableBuilder, Value,
    };

    /// Five columns, two of them strings; `alias` shares `key`'s value
    /// space so a join across the two columns matches.
    fn wide_table(rows: usize, parts: usize, seed: u64) -> Table {
        let mut b = TableBuilder::new(
            "wide",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("alias".into(), DataType::Str),
                ("b".into(), DataType::Int),
                ("c".into(), DataType::Int),
            ],
            rows.div_ceil(parts).max(1),
        );
        let mut x = seed | 1;
        for i in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b.push_row(vec![
                Value::Str(format!("key-{}", (x >> 20) % 41)),
                Value::Int((x % 10_000) as i64),
                Value::Str(format!("key-{}", (x >> 40) % 53)),
                Value::Int((i % 700) as i64),
                Value::Int(((x >> 8) % 900) as i64),
            ]);
        }
        b.build()
    }

    fn seven() -> [DbQuery; 7] {
        [
            DbQuery::FilterCount {
                pred: DbPredicate::Or(vec![
                    DbPredicate::CmpInt { col: 4, op: IntCmp::Gt, lit: 800 },
                    DbPredicate::And(vec![
                        DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 2_000 },
                        DbPredicate::Like { col: 2, pattern: LikePattern::parse("key-1%") },
                    ]),
                ]),
            },
            DbQuery::Distinct { col: 2 },
            DbQuery::Skyline { cols: vec![4, 1, 4] },
            DbQuery::TopN { order_col: 3, n: 9 },
            DbQuery::GroupByMax { key_col: 2, val_col: 4 },
            DbQuery::Join { left_key: 0, right_key: 2 },
            DbQuery::HavingSum { key_col: 0, val_col: 3, threshold: 30_000 },
        ]
    }

    fn fixed(shards: usize, partitioner: ShardPartitioner) -> Sharding {
        Sharding::Fixed(ShardSpec::new(shards, partitioner))
    }

    /// `route_once` under the default cluster seed.
    fn route(q: &DbQuery, l: &Table, r: Option<&Table>, sharding: Sharding) -> RoutedLayout {
        route_once(q, l, r, Cluster::default().tuning.seed, sharding, None)
    }

    #[test]
    fn projected_layouts_run_like_full_width_slices() {
        // The projected slices and the renumbered query must answer, prune
        // and account exactly like full-width slices under the same plan.
        let cluster = Cluster::default();
        let seed = cluster.tuning.seed;
        let (left, right) = (wide_table(3_000, 3, 1), wide_table(700, 2, 2));
        for q in seven() {
            let right_of = q.is_binary().then_some(&right);
            let routed = route(&q, &left, right_of, Sharding::Planner(ShardPlanner::default()));
            assert!(routed.left[0].fields().len() < left.fields().len(), "{q:?}");
            let plan = routed.plan.as_deref().expect("planner-chosen").clone();
            let full_split = |stream: usize, t: &Table| -> Vec<Arc<Table>> {
                let keys = routing_keys(&q, stream, t, seed);
                route_range(t, &keys, &plan.sharder, 0, t.rows())
                    .into_iter()
                    .map(Arc::new)
                    .collect()
            };
            let full_left = full_split(0, &left);
            let full_right = right_of.map(|r| full_split(1, r));
            for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
                let cluster = cluster.clone().with_backend(backend);
                let full = cluster
                    .run_cheetah_presplit(
                        &q,
                        &full_left,
                        full_right.as_deref(),
                        &routed.ingest,
                        routed.decision,
                        Some(plan.clone()),
                    )
                    .unwrap();
                let full_entries: Vec<u64> =
                    full.per_shard.iter().map(|s| s.entries_to_master).collect();
                let pooled = routed.run_pooled(&cluster).unwrap();
                let streamed = routed.run_streamed(&cluster).unwrap();
                for (path, output, stats, per_shard) in [
                    ("pooled", pooled.output, pooled.switch_stats, pooled.per_shard),
                    ("streamed", streamed.output, streamed.switch_stats, streamed.per_shard),
                ] {
                    let what = format!("{} on {path}/{}", q.kind(), backend.label());
                    assert_eq!(output, full.output, "{what}");
                    assert_eq!(stats, full.switch_stats, "{what}");
                    let entries: Vec<u64> = per_shard.iter().map(|s| s.entries_to_master).collect();
                    assert_eq!(entries, full_entries, "{what}");
                    let rows: Vec<u64> = per_shard.iter().map(|s| s.rows).collect();
                    let full_rows: Vec<u64> = full.per_shard.iter().map(|s| s.rows).collect();
                    assert_eq!(rows, full_rows, "{what}");
                }
            }
        }
    }

    #[test]
    fn given_keys_route_like_derived_ones() {
        let cluster = Cluster::default();
        let seed = cluster.tuning.seed;
        let (left, right) = (wide_table(1_200, 2, 3), wide_table(500, 1, 4));
        let q = DbQuery::Join { left_key: 0, right_key: 2 };
        let keys = RoutingKeys::derive(&q, &left, Some(&right), seed);
        assert_eq!(keys.slices().len(), 2);
        let range = || fixed(3, ShardPartitioner::Range);
        let given = route_once(&q, &left, Some(&right), seed, range(), Some(keys));
        let derived = route(&q, &left, Some(&right), range());
        assert_eq!(given.stream.dispatched(), derived.stream.dispatched());
        assert_eq!(given.stream.dispatched().iter().sum::<u64>(), 1_700);
        let want = cluster.run_baseline(&q, &left, Some(&right)).output;
        assert_eq!(given.run_pooled(&cluster).unwrap().output, want);
        // A unary query routes its left stream only.
        let distinct = DbQuery::Distinct { col: 2 };
        assert!(RoutingKeys::derive(&distinct, &left, Some(&right), seed).right.is_none());
        let hash = fixed(2, ShardPartitioner::Hash);
        assert!(route(&distinct, &left, Some(&right), hash).right.is_none());
    }

    #[test]
    fn per_shard_accounting_sums_to_the_breakdown() {
        let cluster = Cluster::default();
        let t = wide_table(4_000, 4, 8);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let run = route(&q, &t, None, fixed(4, ShardPartitioner::Hash)).run_pooled(&cluster);
        let run = run.unwrap();
        let sum = |f: fn(&cheetah_db::ShardStats) -> u64| run.per_shard.iter().map(f).sum::<u64>();
        assert_eq!(run.per_shard.len(), 4);
        assert_eq!(sum(|s| s.rows), 4_000);
        assert_eq!(run.breakdown.master_wire_bytes, sum(|s| s.master_wire_bytes));
        assert_eq!(run.breakdown.entries_to_master, sum(|s| s.entries_to_master));
        assert_eq!(run.switch_stats.seen, sum(|s| s.seen));
        assert!(run.breakdown.master_ingest_seconds > 0.0, "ingest model must be threaded");
        assert!(run.plan.is_none(), "a fixed spec carries no plan");
        assert!(!run.breakdown.plan.expect("decision recorded").is_planned());
    }

    #[test]
    fn planned_layout_matches_a_fixed_one_and_records_its_plan() {
        let cluster = Cluster::default();
        let t = wide_table(2_000, 3, 11);
        let q = DbQuery::Distinct { col: 0 };
        let fixed = route(&q, &t, None, fixed(4, ShardPartitioner::Hash));
        let planned = route(&q, &t, None, Sharding::Planner(ShardPlanner::default()));
        let plan = planned.plan.clone().expect("planned layout records its plan");
        let run = planned.run_pooled(&cluster).unwrap();
        assert_eq!(fixed.run_pooled(&cluster).unwrap().output, run.output);
        assert_eq!(run.breakdown.shards as usize, plan.shards());
        assert!(run.breakdown.plan.expect("decision recorded").is_planned());
        assert_eq!(run.plan.as_ref(), Some(&*plan));
        // Handing the same plan back in routes identically.
        let again = route(&q, &t, None, Sharding::Plan { plan, ingest: planned.ingest });
        assert_eq!(again.stream.dispatched(), planned.stream.dispatched());
        assert_eq!(again.decision, planned.decision);
    }
}
