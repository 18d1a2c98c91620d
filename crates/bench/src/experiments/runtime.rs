//! Streamed vs barrier execution: what overlapping the merge buys.
//!
//! The `shards` sweep shows the barrier axis, the `planner` sweep shows
//! the layout choice; this experiment shows the *dataflow* choice. On the
//! planner-adversarial workloads where shard completion times spread the
//! most — zipf(1.5) key skew and the single-hot-key degenerate — the
//! pooled barrier executor joins every worker before the master folds a
//! single survivor, while the streamed executor folds early shards'
//! batches behind the straggler. The barrier runs a `route_once` layout;
//! the streamed executor runs the same routing cut into input rounds
//! (`route_rounds`; one round for a key-holistic query), so survivors
//! reach the master while workers are still pruning.
//!
//! Two bars are asserted inline on every run, mirroring the acceptance
//! criteria: on the zipf(1.5) workload the streamed run's modelled
//! completion is **never slower than the barrier run's** (small noise
//! allowance — both are wall-clock at quick scale), and its measured
//! `overlap_seconds` is **strictly positive** — the merge really did run
//! while workers were still pruning.

use crate::report::secs;
use crate::{streamed_rounds, STREAMED_ROUNDS};
use crate::{Report, RunCtx};
use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbQuery, ShardSpec, ShardedRun};
use cheetah_runtime::{route_once, route_rounds, Sharding, StreamedExecution, StreamedRun};
use cheetah_workloads::PlannerAdversary;

const LINK_GBPS: f64 = 10.0;
/// Wall-clock repetitions per point (best-of, to shave scheduler noise
/// off the inline assertions).
const REPS: usize = 3;
/// Noise allowance on the streamed ≤ barrier bar. The bar is asserted on
/// the *workload aggregate* across the routing-agnostic families —
/// individual sub-millisecond quick-scale points jitter by more than the
/// overlap win, the sum does not. It exists to prove the overlap is
/// real, not to police microseconds.
const NOISE: f64 = 1.10;

fn barrier_completion(run: &ShardedRun) -> f64 {
    run.breakdown.completion_seconds(LINK_GBPS)
}

fn streamed_completion(run: &StreamedRun) -> f64 {
    run.breakdown.completion_seconds(LINK_GBPS)
}

/// Build the comparison.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let rows = ctx.scale.entries(20_000, 2_000_000);
    let shards = ctx.shards.iter().copied().max().unwrap_or(4).clamp(2, 8);
    let cluster = Cluster::default();
    let families: Vec<(&str, DbQuery)> = vec![
        ("distinct", DbQuery::Distinct { col: 0 }),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }),
        ("topn", DbQuery::TopN { order_col: 1, n: 100 }),
        ("having-sum", DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 40_000 }),
    ];

    let mut r = Report::new(
        "runtime",
        "Streamed runtime vs barrier sharded (adversarial workloads)",
        &["workload", "query", "dataflow", "completion", "worker", "master", "overlap", "batches"],
    );
    for adv in [PlannerAdversary::Zipf(1.5), PlannerAdversary::SingleHotKey] {
        let table = adv.table(rows, 8, 0xC4_11EE);
        let spec = ShardSpec::new(shards, ShardPartitioner::Hash);
        let seed = cluster.tuning.seed;
        let mut asserted_barrier = 0.0f64;
        let mut asserted_streamed = 0.0f64;
        for (name, q) in &families {
            let single = cluster.run_cheetah(q, &table, None).expect("plan fits");
            let routed = route_once(q, &table, None, seed, Sharding::Fixed(spec), None);
            let layout = route_rounds(q, &table, None, seed, spec, streamed_rounds(q));
            let run_streamed = || cluster.run_cheetah_streamed_resident(q, &layout);

            let mut barrier = routed.run_pooled(&cluster).expect("plan fits");
            let mut streamed = run_streamed().expect("plan fits");
            let mut max_overlap = streamed.breakdown.overlap_seconds;
            for _ in 1..REPS {
                let b = routed.run_pooled(&cluster).expect("plan fits");
                if barrier_completion(&b) < barrier_completion(&barrier) {
                    barrier = b;
                }
                let s = run_streamed().expect("fits");
                max_overlap = max_overlap.max(s.breakdown.overlap_seconds);
                if streamed_completion(&s) < streamed_completion(&streamed) {
                    streamed = s;
                }
            }
            assert_eq!(single.output, barrier.output, "{name}: barrier diverged");
            assert_eq!(single.output, streamed.output, "{name}: streamed diverged");

            let b = &barrier.breakdown;
            r.row(vec![
                adv.name(),
                (*name).to_string(),
                "barrier".into(),
                secs(barrier_completion(&barrier)),
                secs(b.worker_seconds),
                secs(b.master_seconds),
                secs(0.0),
                "-".into(),
            ]);
            let s = &streamed.breakdown;
            r.row(vec![
                adv.name(),
                (*name).to_string(),
                "streamed".into(),
                secs(streamed_completion(&streamed)),
                secs(s.worker_seconds),
                secs(s.master_seconds),
                secs(s.overlap_seconds),
                streamed.batches.to_string(),
            ]);

            // The acceptance bars, on the workload they are stated over.
            // Key-holistic families are reported but not asserted: at toy
            // scale their framing overhead has no straggler to hide behind.
            if matches!(adv, PlannerAdversary::Zipf(1.5)) && q.merge_routing_agnostic() {
                asserted_barrier += barrier_completion(&barrier);
                asserted_streamed += streamed_completion(&streamed);
                // Judged across the reps, not just the fastest one — a
                // descheduled master in a single rep is noise, every rep
                // showing zero overlap is a broken runtime.
                assert!(max_overlap > 0.0, "{name}: no merge work overlapped the workers");
            }
        }
        if matches!(adv, PlannerAdversary::Zipf(1.5)) {
            assert!(
                asserted_streamed <= asserted_barrier * NOISE,
                "streamed ({asserted_streamed:.4}s) slower than barrier \
                 ({asserted_barrier:.4}s) across the zipf(1.5) families",
            );
        }
    }
    r.note(format!(
        "{rows} rows, {shards} hash shards; barrier over a route_once layout, streamed over the \
         same routing in {STREAMED_ROUNDS} input rounds (1 for having-sum), batching per the \
         ingest model; outputs verified equal to the unsharded run at every point"
    ));
    r.note(
        "inline bars on zipf(1.5), routing-agnostic families: streamed completion ≤ barrier \
         (noise allowance) and overlap_seconds > 0; having-sum is reported only",
    );
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn comparison_covers_both_dataflows_on_both_adversaries() {
        // run() itself asserts the acceptance bars inline; this pins the
        // report shape: 2 workloads × 4 families × 2 dataflow rows.
        let ctx = RunCtx { scale: Scale::Quick, shards: vec![4] };
        let r = &run(&ctx)[0];
        assert_eq!(r.rows.len(), 2 * 4 * 2);
        assert_eq!(r.rows.iter().filter(|row| row[2] == "streamed").count(), 8);
        // Streamed rows carry live batch counts.
        for row in r.rows.iter().filter(|row| row[2] == "streamed") {
            let batches: u64 = row[7].parse().expect("batch count");
            assert!(batches > 0, "{row:?}");
        }
    }
}
