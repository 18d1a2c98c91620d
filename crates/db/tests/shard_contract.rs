//! The shard equivalence gate: `Q(merge(shards(D))) = Q(D)` for **all
//! seven** [`DbQuery`] variants, across shard counts {1, 2, 7}, both
//! partitioners (hash and range) and both resident executors (pooled
//! barrier and streamed) over one `route_once` layout, including
//! empty-shard and all-rows-one-shard edge cases.
//!
//! This is the sharded layer's analogue of the pruning contract: sharding
//! must be invisible in the output, only visible in the breakdown. CI runs
//! this file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test shard_contract`), so a broken
//! router, merge rule, or partitioner fails loudly even if nothing else
//! notices.

mod common;

use common::{all_seven, gen_table};

use cheetah_db::{
    Cluster, DataType, DbQuery, ShardPartitioner, ShardSpec, ShardStats, Table, TableBuilder, Value,
};
use cheetah_runtime::{route_once, RoutedLayout, Sharding};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
const PARTITIONERS: [ShardPartitioner; 2] = [ShardPartitioner::Hash, ShardPartitioner::Range];

/// `q` over `left` (and `right`) routed once under a fixed spec.
fn route(q: &DbQuery, left: &Table, right: Option<&Table>, spec: ShardSpec) -> RoutedLayout {
    let seed = Cluster::default().tuning.seed;
    route_once(q, left, right, seed, Sharding::Fixed(spec), None)
}

/// Run one layout on both resident executors and assert the contract on
/// each: the baseline's output, the layout's shard count, no row lost.
/// Returns the pooled run's per-shard accounting.
fn assert_both_executors(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
    spec: ShardSpec,
) -> Vec<ShardStats> {
    let base = cluster.run_baseline(q, left, right);
    let routed = route(q, left, right, spec);
    let pooled = routed.run_pooled(cluster).expect("plan fits");
    let streamed = routed.run_streamed(cluster).expect("plan fits");
    let total = left.rows() as u64 + right.map_or(0, |r| r.rows() as u64);
    for (executor, output, breakdown, per_shard) in [
        ("pooled", &pooled.output, &pooled.breakdown, &pooled.per_shard),
        ("streamed", &streamed.output, &streamed.breakdown, &streamed.per_shard),
    ] {
        let what = format!(
            "{} at {} shards under {} routing on the {executor} executor",
            q.kind(),
            spec.shards,
            spec.partitioner.name()
        );
        assert_eq!(&base.output, output, "{what} diverged");
        assert_eq!(breakdown.shards, spec.shards as u32, "{what}");
        assert_eq!(per_shard.len(), spec.shards, "{what}");
        let routed: u64 = per_shard.iter().map(|s| s.rows).sum();
        assert_eq!(routed, total, "{what}: rows lost in routing");
        if total == 0 {
            assert_eq!(breakdown.entries_to_master, 0, "{what}");
            assert_eq!(breakdown.master_ingest_seconds, 0.0, "{what}");
            assert_eq!(breakdown.overlap_seconds, 0.0, "{what}");
        }
    }
    pooled.per_shard
}

/// Assert the full grid: every query, every shard count, every
/// partitioner, both executors, against both the baseline and the
/// unsharded Cheetah run.
fn assert_shard_contract(cluster: &Cluster, left: &Table, right: &Table, threshold: i64) {
    for q in all_seven(threshold) {
        let right_of = q.is_binary().then_some(right);
        let base = cluster.run_baseline(&q, left, right_of);
        let single = cluster.run_cheetah(&q, left, right_of).expect("plan fits");
        assert_eq!(base.output, single.output, "{} unsharded diverged", q.kind());
        for partitioner in PARTITIONERS {
            for shards in SHARD_COUNTS {
                let spec = ShardSpec::new(shards, partitioner);
                assert_both_executors(cluster, &q, left, right_of, spec);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn merge_of_shards_equals_the_unsharded_query(
        seed in any::<u64>(),
        rows in 120usize..900,
        keys in 1u64..150,
        partitions in 1usize..5,
    ) {
        let cluster = Cluster::default();
        let left = gen_table(rows, keys, partitions, seed);
        let right = gen_table(rows / 2 + 1, keys.saturating_mul(2).max(1), 2, seed ^ 0xFF);
        let threshold = (rows as i64) * 20;
        assert_shard_contract(&cluster, &left, &right, threshold);
    }
}

#[test]
fn empty_table_every_variant_every_grid_point() {
    // All shards empty: the degenerate end of the empty-shard case.
    let cluster = Cluster::default();
    let left = gen_table(0, 1, 1, 7);
    let right = gen_table(0, 1, 1, 8);
    assert_shard_contract(&cluster, &left, &right, 10);
}

#[test]
fn fewer_rows_than_shards_leaves_empty_shards() {
    // 3 rows over 7 shards: at least four shards receive nothing and
    // must still merge cleanly.
    let cluster = Cluster::default();
    let left = gen_table(3, 5, 1, 21);
    let right = gen_table(2, 5, 1, 22);
    assert_shard_contract(&cluster, &left, &right, 0);
    let q = DbQuery::Distinct { col: 0 };
    let spec = ShardSpec::new(7, ShardPartitioner::Hash);
    let per_shard = assert_both_executors(&cluster, &q, &left, None, spec);
    assert!(per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
}

#[test]
fn constant_key_routes_all_rows_to_one_shard() {
    // Key-aligned routing over a single-key table: everything lands on
    // one shard, the rest stay empty — the all-rows-one-shard edge.
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        10,
    );
    for i in 0..300i64 {
        b.push_row(vec![Value::Str("same".into()), Value::Int(i % 50), Value::Int(5)]);
    }
    let table = b.build();
    let cluster = Cluster::default();
    assert_shard_contract(&cluster, &table, &table, 100);
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 100 },
    ] {
        let spec = ShardSpec::new(5, ShardPartitioner::Hash);
        let per_shard = assert_both_executors(&cluster, &q, &table, None, spec);
        let nonempty: Vec<u64> = per_shard.iter().map(|s| s.rows).filter(|&r| r > 0).collect();
        assert_eq!(nonempty, vec![300], "{}: keyed routing must co-locate the key", q.kind());
    }
}

#[test]
fn range_routing_keeps_topn_value_locality() {
    // TOP N routes by the order column; under range sharding the global
    // top values all sit on the highest-keyed shard, yet the merged
    // output still matches.
    let cluster = Cluster::default();
    let left = gen_table(800, 40, 3, 77);
    let q = DbQuery::TopN { order_col: 1, n: 10 };
    let single = cluster.run_cheetah(&q, &left, None).unwrap();
    let routed = route(&q, &left, None, ShardSpec::new(2, ShardPartitioner::Range));
    assert_eq!(single.output, routed.run_pooled(&cluster).unwrap().output);
    assert_eq!(single.output, routed.run_streamed(&cluster).unwrap().output);
}

#[test]
fn having_sum_spanning_threshold_only_globally_is_not_lost() {
    // The sharp edge of HAVING under sharding: a key whose *global* sum
    // exceeds the threshold while every equal split would not. Key-aligned
    // routing must put all of its rows on one shard, so the local decision
    // is the global one.
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        7,
    );
    // key "hot": 40 rows of 30 → sum 1200 (> 1000; any half would be 600).
    // key "cold-i": one row of 1 each.
    for _ in 0..40 {
        b.push_row(vec![Value::Str("hot".into()), Value::Int(30), Value::Int(1)]);
    }
    for i in 0..30 {
        b.push_row(vec![Value::Str(format!("cold-{i}")), Value::Int(1), Value::Int(1)]);
    }
    let table = b.build();
    let cluster = Cluster::default();
    let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 1_000 };
    for partitioner in PARTITIONERS {
        for shards in SHARD_COUNTS {
            assert_both_executors(&cluster, &q, &table, None, ShardSpec::new(shards, partitioner));
        }
    }
}
