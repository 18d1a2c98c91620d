//! The compiled contract gate, the named CI tier for the plan-time fused
//! kernels. What it pins down:
//!
//! 1. **Bit-identity** — for **all seven** `DbQuery` variants across the
//!    adversarial workload family ({uniform, zipf(1.0), zipf(1.5),
//!    single-hot-key}) at shard counts {1, 2, 7}, on both resident
//!    executors over one `route_once` layout, a run on the compiled
//!    backend produces *exactly* the interpreted oracle's output. Not
//!    "equivalent": the kernels rebuild the same hashed state from the
//!    same seeds, so every verdict — and therefore every survivor and
//!    every merged row — must match.
//! 2. **Deterministic pruning counters** — `seen`/`pruned`/`forwarded`
//!    and `entries_to_master` are unchanged between backends, shard by
//!    shard. A kernel that forwards the right rows for the wrong reasons
//!    (different prune pattern, same survivors after dedup) fails here.
//! 3. **Honest attribution** — the breakdown of a compiled run records
//!    `ExecBackend::Compiled`; the oracle records `Interpreted`. Perf
//!    rows in the smoke harness trust this field.

mod common;

use common::all_seven;

use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbQuery, ExecBackend, ExecPath, ShardSpec, ShardedRun, Table};
use cheetah_runtime::{route_once, Sharding, StreamedRun};
use cheetah_serve::{QueryRequest, Session};
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

/// Drive one query on both backends over the same tables and spec;
/// assert output + counter identity.
fn assert_backends_agree(
    oracle: &Cluster,
    compiled: &Cluster,
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
    shards: usize,
    label: &str,
) {
    if shards == 1 {
        let i = oracle.run_cheetah(q, left, right).expect("oracle run fits");
        let c = compiled.run_cheetah(q, left, right).expect("compiled run fits");
        assert_eq!(i.output, c.output, "{} output diverged on {label}", q.kind());
        assert_eq!(i.switch_stats, c.switch_stats, "{} counters diverged on {label}", q.kind());
        assert_eq!(
            i.breakdown.entries_to_master,
            c.breakdown.entries_to_master,
            "{} survivor count diverged on {label}",
            q.kind()
        );
        assert_eq!(i.breakdown.backend, ExecBackend::Interpreted);
        assert_eq!(c.breakdown.backend, ExecBackend::Compiled, "{label}");
        return;
    }
    let spec = Sharding::Fixed(ShardSpec::new(shards, ShardPartitioner::Hash));
    let routed = route_once(q, left, right, oracle.tuning.seed, spec, None);
    let streamed = |c: &Cluster| -> StreamedRun { routed.run_streamed(c).expect("run fits") };
    let (i, c) = (streamed(oracle), streamed(compiled));
    assert_eq!(i.output, c.output, "{} streamed output diverged on {label}", q.kind());
    assert_eq!(i.switch_stats, c.switch_stats, "{} streamed counters diverged", q.kind());
    assert_eq!(c.breakdown.backend, ExecBackend::Compiled, "{label}");
    let pooled = |c: &Cluster| -> ShardedRun { routed.run_pooled(c).expect("run fits") };
    let (i, c) = (pooled(oracle), pooled(compiled));
    assert_eq!(i.output, c.output, "{} output diverged on {label}", q.kind());
    assert_eq!(i.switch_stats, c.switch_stats, "{} counters diverged on {label}", q.kind());
    assert_eq!(
        i.breakdown.entries_to_master,
        c.breakdown.entries_to_master,
        "{} survivor count diverged on {label}",
        q.kind()
    );
    // Shard by shard, not just in aggregate: a kernel that prunes the
    // right total from the wrong shards still fails. Only the
    // deterministic fields — ShardStats also carries wall-clock seconds.
    for (s, (is_, cs)) in i.per_shard.iter().zip(&c.per_shard).enumerate() {
        let ctx = format!("{} shard {s} on {label}", q.kind());
        assert_eq!(is_.rows, cs.rows, "rows diverged: {ctx}");
        assert_eq!(is_.seen, cs.seen, "seen diverged: {ctx}");
        assert_eq!(is_.pruned, cs.pruned, "pruned diverged: {ctx}");
        assert_eq!(is_.entries_to_master, cs.entries_to_master, "survivors diverged: {ctx}");
        assert_eq!(is_.master_wire_bytes, cs.master_wire_bytes, "bytes diverged: {ctx}");
    }
    assert_eq!(i.breakdown.backend, ExecBackend::Interpreted);
    assert_eq!(c.breakdown.backend, ExecBackend::Compiled, "{label}");
}

#[test]
fn compiled_kernels_are_bit_identical_across_the_adversarial_family() {
    let oracle = Cluster::default();
    let compiled = Cluster::default().with_backend(ExecBackend::Compiled);
    for adv in PlannerAdversary::all() {
        let left = adv.table(900, 3, 0x5EED);
        let right = adv.table(450, 2, 0x5EED ^ 0xFACE);
        for shards in [1usize, 2, 7] {
            let label = format!("{}@{shards}", adv.name());
            for q in all_seven(9_000) {
                let right_of = q.is_binary().then_some(&right);
                assert_backends_agree(&oracle, &compiled, &q, &left, right_of, shards, &label);
            }
        }
    }
}

#[test]
fn compiled_backend_is_recorded_end_to_end() {
    // The honest-attribution clause on its own, over a bigger table, so a
    // future fallback path can't silently misreport what ran.
    let compiled = Cluster::default().with_backend(ExecBackend::Compiled);
    let t = PlannerAdversary::Zipf(1.5).table(2_000, 4, 0xBEEF);
    let run = compiled.run_cheetah(&DbQuery::Distinct { col: 0 }, &t, None).unwrap();
    assert_eq!(run.breakdown.backend, ExecBackend::Compiled);
    assert_eq!(run.breakdown.backend.label(), "compiled");
    let q = DbQuery::Distinct { col: 0 };
    let spec = Sharding::Fixed(ShardSpec::new(4, ShardPartitioner::Range));
    let routed = route_once(&q, &t, None, compiled.tuning.seed, spec, None);
    assert_eq!(routed.run_pooled(&compiled).unwrap().breakdown.backend, ExecBackend::Compiled);
    assert_eq!(routed.run_streamed(&compiled).unwrap().breakdown.backend, ExecBackend::Compiled);
    // The front door pinned to the compiled backend records it too, on
    // either path.
    let session = Session::with_defaults();
    let t = Arc::new(t);
    for path in [ExecPath::BarrierPooled, ExecPath::StreamedResident] {
        let req = QueryRequest::new(q.clone(), Arc::clone(&t)).shards(4);
        let resp = session.run_blocking(req.path(path).backend(ExecBackend::Compiled)).unwrap();
        assert_eq!(resp.breakdown.backend, ExecBackend::Compiled, "{}", path.label());
    }
}

#[test]
fn compiled_repeat_runs_are_deterministic() {
    // Same cluster, same tables: the kernels rebuild identical state, so
    // two compiled runs must agree with each other bit for bit too.
    let compiled = Cluster::default().with_backend(ExecBackend::Compiled);
    let t = PlannerAdversary::SingleHotKey.table(1_200, 3, 42);
    for q in all_seven(9_000) {
        if q.is_binary() {
            continue;
        }
        let a = compiled.run_cheetah(&q, &t, None).unwrap();
        let b = compiled.run_cheetah(&q, &t, None).unwrap();
        assert_eq!(a.output, b.output, "{}", q.kind());
        assert_eq!(a.switch_stats, b.switch_stats, "{}", q.kind());
    }
}
