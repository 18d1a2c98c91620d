//! The runtime contract gate, the fourth named CI tier after the pruning,
//! shard, and planner gates. What it pins down:
//!
//! 1. **Correctness** — the streamed executor over a `route_once` layout
//!    is bit-identical to the baseline for **all seven** `DbQuery`
//!    variants across the adversarial workload family ({uniform,
//!    zipf(1.0), zipf(1.5), single-hot-key}), at shard counts {1, 2, 7}
//!    under both partitioners and under a planner-chosen layout:
//!    streaming changes *when* survivors reach the master, never *what*
//!    the query answers.
//! 2. **Input rounds** — a multi-round layout (cut by
//!    `StreamLayout::from_units`) still answers exactly for every
//!    routing-agnostic family, so the merge across rounds stays covered;
//!    a key-holistic family (HAVING, JOIN) is refused such a layout with
//!    a typed error instead of answering wrongly.
//! 3. **Determinism** — same seed + same tables ⇒ identical output,
//!    shard assignment, and survivor counts.

mod common;

use common::{all_seven, gen_table};

use cheetah_core::ShardPartitioner;
use cheetah_db::{
    Cluster, DataType, DbQuery, QueryOutput, ShardPlanner, ShardSpec, Table, TableBuilder,
};
use cheetah_runtime::{route_once, route_rounds, Sharding, StreamedExecution};
use cheetah_workloads::PlannerAdversary;

/// The full variant grid over one workload pair under one sharding.
fn assert_streamed_contract(
    cluster: &Cluster,
    left: &Table,
    right: &Table,
    threshold: i64,
    sharding: &Sharding,
    label: &str,
) {
    for q in all_seven(threshold) {
        let right_of = q.is_binary().then_some(right);
        let base = cluster.run_baseline(&q, left, right_of);
        let routed = route_once(&q, left, right_of, cluster.tuning.seed, sharding.clone(), None);
        let run = routed.run_streamed(cluster).expect("plan fits");
        assert_eq!(
            base.output,
            run.output,
            "{} diverged under the streamed executor on {label}",
            q.kind()
        );
        // Routing must not lose rows.
        let routed_rows: u64 = run.per_shard.iter().map(|s| s.rows).sum();
        let total = left.rows() as u64 + right_of.map_or(0, |r| r.rows() as u64);
        assert_eq!(routed_rows, total, "{} on {label}: rows lost in routing", q.kind());
        assert_eq!(run.rounds, 1, "{} on {label}: route_once builds one round", q.kind());
        // The merge plane's telemetry stays self-consistent.
        assert!(
            run.breakdown.overlap_seconds <= run.merge_seconds + 1e-12,
            "{} on {label}: overlap exceeds total merge work",
            q.kind()
        );
        if run.breakdown.entries_to_master > 0 {
            assert!(run.batches > 0, "{} on {label}: survivors must be framed", q.kind());
        }
    }
}

#[test]
fn streamed_runs_match_baseline_across_the_adversarial_family() {
    let cluster = Cluster::default();
    for adv in PlannerAdversary::all() {
        let left = adv.table(900, 3, 0x5EED);
        let right = adv.table(450, 2, 0x5EED ^ 0xFACE);
        for shards in [1usize, 2, 7] {
            for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
                let sharding = Sharding::Fixed(ShardSpec::new(shards, partitioner));
                let label = format!("{} × {}@{}", adv.name(), partitioner.name(), shards);
                assert_streamed_contract(&cluster, &left, &right, 9_000, &sharding, &label);
            }
        }
    }
}

#[test]
fn streamed_planned_layout_matches_baseline_too() {
    let cluster = Cluster::default();
    for adv in [PlannerAdversary::Zipf(1.5), PlannerAdversary::SingleHotKey] {
        let left = adv.table(900, 3, 0xA11CE);
        let right = adv.table(450, 2, 0xA11CE ^ 0xFACE);
        let sharding = Sharding::Planner(ShardPlanner::default());
        assert_streamed_contract(&cluster, &left, &right, 9_000, &sharding, &adv.name());
    }
}

// ---------------------------------------------------------------------
// Input rounds
// ---------------------------------------------------------------------

#[test]
fn multi_round_layouts_merge_exactly_for_routing_agnostic_families() {
    let cluster = Cluster::default();
    let seed = cluster.tuning.seed;
    for adv in [PlannerAdversary::Uniform, PlannerAdversary::Zipf(1.5)] {
        let t = adv.table(1_200, 3, 0x20D5);
        for q in all_seven(9_000).into_iter().filter(DbQuery::merge_routing_agnostic) {
            let base = cluster.run_baseline(&q, &t, None);
            for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
                let layout = route_rounds(&q, &t, None, seed, ShardSpec::new(3, partitioner), 4);
                assert_eq!(layout.rounds(), 4);
                let run = cluster.run_cheetah_streamed_resident(&q, &layout).expect("fits");
                let label = format!("{} on {} × {}", q.kind(), adv.name(), partitioner.name());
                assert_eq!(base.output, run.output, "{label}: merge across rounds diverged");
                assert_eq!(run.rounds, 4, "{label}");
                assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 1_200, "{label}");
            }
        }
    }
}

#[test]
fn key_holistic_families_refuse_a_multi_round_layout() {
    // Split across two rounds, a HAVING key's local sums each miss the
    // threshold its global sum clears (and a JOIN's streams never meet
    // whole): the executor must refuse the layout, not answer wrongly.
    let cluster = Cluster::default();
    let t = gen_table(2_000, 40, 3, 0x4A11);
    let spec = ShardSpec::new(2, ShardPartitioner::Hash);
    for q in all_seven(500).into_iter().filter(|q| !q.merge_routing_agnostic()) {
        let layout = route_rounds(&q, &t, None, cluster.tuning.seed, spec, 2);
        let run = cluster.run_cheetah_streamed_resident(&q, &layout);
        let err = run.expect_err("a key-holistic query must refuse a two-round layout");
        assert!(err.to_string().contains("2 input rounds"), "{}: {err}", q.kind());
    }
}

// ---------------------------------------------------------------------
// Determinism and edges
// ---------------------------------------------------------------------

#[test]
fn streamed_execution_is_deterministic_end_to_end() {
    let cluster = Cluster::default();
    let t = PlannerAdversary::Zipf(1.2).table(1_500, 3, 77);
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10_000 },
    ] {
        let sharding = Sharding::Fixed(ShardSpec::new(4, ShardPartitioner::Hash));
        let seed = cluster.tuning.seed;
        let a = route_once(&q, &t, None, seed, sharding.clone(), None).run_streamed(&cluster);
        let b = route_once(&q, &t, None, seed, sharding, None).run_streamed(&cluster);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.output, b.output, "{}", q.kind());
        let rows_a: Vec<u64> = a.per_shard.iter().map(|s| s.rows).collect();
        let rows_b: Vec<u64> = b.per_shard.iter().map(|s| s.rows).collect();
        assert_eq!(rows_a, rows_b, "{}: shard assignment must be deterministic", q.kind());
        assert_eq!(a.breakdown.entries_to_master, b.breakdown.entries_to_master);
        assert_eq!(a.switch_stats, b.switch_stats, "{}", q.kind());
    }
}

#[test]
fn empty_and_tiny_tables_stream_cleanly() {
    let cluster = Cluster::default();
    let seed = cluster.tuning.seed;
    let empty = TableBuilder::new(
        "empty",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        8,
    )
    .build();
    let sharding = Sharding::Fixed(ShardSpec::new(7, ShardPartitioner::Hash));
    let q = DbQuery::Distinct { col: 0 };
    let run = route_once(&q, &empty, None, seed, sharding.clone(), None)
        .run_streamed(&cluster)
        .expect("plan fits");
    assert_eq!(run.output, QueryOutput::Values(vec![]));
    assert_eq!(run.batches, 0);
    // Three rows over seven shards and four rounds: most units are empty
    // and skipped, yet nothing is lost.
    let tiny = PlannerAdversary::Uniform.table(3, 1, 5);
    let q = DbQuery::TopN { order_col: 1, n: 2 };
    let layout = route_rounds(&q, &tiny, None, seed, ShardSpec::new(7, ShardPartitioner::Hash), 4);
    let run = cluster.run_cheetah_streamed_resident(&q, &layout).expect("plan fits");
    assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
    assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 3);
}
