//! The traced run: per-layer metrics from direct calls into each layer's
//! public entry point, made from the benchmark's own code.
//!
//! Phase A serves the workload twice through the session, untraced then
//! with a span around every request; it gives the serving metrics and
//! the tracing overhead. Phase B probes shapes one at a time: it routes
//! the shape itself with the plan the session would use (a mirror of
//! the session's plan cache), times every execution arm on that layout,
//! pairs session requests with a direct replay on the same arm and
//! layout (their difference is `serve.remainder_ms`, the front door's
//! unattributed cost), and times the master merge and the baseline.

use crate::report::{mean, median, quantile, Metrics, ARM_LABELS, MODELLED_MS};
use crate::serve::{self, request_id, Client, Ledger, Sample, Served};
use crate::span::Tracer;
use crate::workload::{self, Family, Scale, Shape, Workload};
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_db::{
    merge_shard_outputs, route_range, routing_keys, ChooserArm, Cluster, DataType, DbQuery,
    ExecBackend, ExecBreakdown, ExecPath, PathChooser, PlannerConfig, QueryOutput,
    ShardPartitioner, ShardPlanner, Table, TableBuilder, Value,
};
use cheetah_runtime::{PooledExecution, StreamLayout, StreamedExecution};
use cheetah_serve::{PlanCache, QueryResponse, Session, SessionConfig, StatsFingerprint};
use std::collections::HashMap;
use std::sync::Arc;

/// How much Phase B repeats each direct call, per workload.
struct Reps {
    /// Session/replay pairs per probed shape.
    pairs: usize,
    /// Direct executions per arm per probed shape.
    exec: usize,
    merge: usize,
    baseline: usize,
}

fn reps(w: Workload) -> Reps {
    match w {
        Workload::ScanLarge => Reps { pairs: 3, exec: 2, merge: 5, baseline: 2 },
        Workload::Dashboard => Reps { pairs: 8, exec: 8, merge: 20, baseline: 8 },
        Workload::FreshTables => Reps { pairs: 1, exec: 1, merge: 3, baseline: 1 },
    }
}

/// fresh-tables: fresh shapes Phase B probes (four per family).
const FRESH_PROBES: u64 = 28;
/// Alternating untraced/traced serving slices of phase A.
const PHASE_A_SLICES: usize = 6;
/// One-row executor probes per path.
const FIXED_REPS: usize = 200;

/// Mirror of the session's plan decisions: the same plan cache type and
/// settings, fed the same request order, and the same survivor hint the
/// session's per-shape bandit would give the planner. Planner calls are
/// timed as `planner.plan` spans.
struct Mirror {
    plans: PlanCache,
    survivors: HashMap<String, u64>,
    seed: u64,
    shards: Vec<f64>,
}

impl Mirror {
    fn new() -> Mirror {
        let cfg = SessionConfig::default();
        Mirror {
            plans: PlanCache::new(cfg.plan_cache_capacity, cfg.stats_tolerance),
            survivors: HashMap::new(),
            seed: Cluster::default().tuning.seed,
            shards: Vec::new(),
        }
    }

    /// The plan the session uses for `shape`, and whether it was cached.
    fn plan(
        &mut self,
        t: &Tracer,
        parent: Option<u64>,
        rid: u64,
        shape: &Shape,
    ) -> (Arc<ShardPlan>, bool) {
        let key = shape.shape_key();
        let stats = StatsFingerprint::of(&shape.left, shape.right.as_deref());
        if let Some(hit) = self.plans.lookup(&key, stats) {
            return (hit.plan, true);
        }
        let cfg = PlannerConfig {
            ingest: SessionConfig::default().ingest,
            survivor_hint: self.survivors.get(&key).copied(),
            ..PlannerConfig::default()
        };
        let (plan, _) = t.time("planner.plan", parent, rid, || {
            ShardPlanner::new(cfg).plan(
                &shape.query,
                &shape.left,
                shape.right.as_deref(),
                self.seed,
            )
        });
        self.shards.push(plan.shards() as f64);
        let plan = Arc::new(plan);
        self.plans.insert(&key, stats, Arc::clone(&plan));
        (plan, false)
    }

    fn observe(&mut self, shape: &Shape, resp: &QueryResponse) {
        self.survivors.insert(shape.shape_key(), resp.breakdown.entries_to_master);
    }
}

/// A shape routed by the benchmark itself, as the session routes it.
struct Layout {
    left: Vec<Arc<Table>>,
    right: Option<Vec<Arc<Table>>>,
    stream: StreamLayout,
    decision: PlanDecision,
    plan: Option<Arc<ShardPlan>>,
}

fn route(
    t: &Tracer,
    parent: Option<u64>,
    rid: u64,
    shape: &Shape,
    plan: Arc<ShardPlan>,
    seed: u64,
    rows_routed: &mut u64,
) -> Layout {
    let q = &shape.query;
    let (keys, _) = t.time("route.keys", parent, rid, || {
        let left = routing_keys(q, 0, &shape.left, seed);
        let right = shape.right.as_ref().map(|r| routing_keys(q, 1, r, seed));
        (left, right)
    });
    let ((left, right), _) = t.time("route.split", parent, rid, || {
        let split = |table: &Table, keys: &[u64]| -> Vec<Arc<Table>> {
            route_range(table, keys, &plan.sharder, 0, table.rows())
                .into_iter()
                .map(Arc::new)
                .collect()
        };
        let left = split(&shape.left, &keys.0);
        let right = shape.right.as_ref().zip(keys.1.as_ref()).map(|(r, k)| split(r, k));
        (left, right)
    });
    *rows_routed += shape.rows();
    let decision = PlanDecision::Planned(plan.partitioner());
    let stream = StreamLayout::from_units(
        vec![left.clone()],
        right.clone(),
        SessionConfig::default().ingest,
        decision,
        Some((*plan).clone()),
        None,
        None,
    );
    Layout { left, right, stream, decision, plan: Some(plan) }
}

/// One direct execution of `q` on `layout` through `arm`'s executor —
/// the same call the session makes for that arm.
fn exec(q: &DbQuery, layout: &Layout, arm: ChooserArm) -> Option<(QueryOutput, ExecBreakdown)> {
    let cluster = Cluster::default().with_backend(arm.backend);
    let run = match arm.path {
        ExecPath::BarrierPooled => cluster
            .run_cheetah_presplit(
                q,
                &layout.left,
                layout.right.as_deref(),
                &SessionConfig::default().ingest,
                layout.decision,
                layout.plan.as_deref().cloned(),
            )
            .map(|r| (r.output, r.breakdown)),
        ExecPath::StreamedResident => cluster
            .run_cheetah_streamed_resident(q, &layout.stream)
            .map(|r| (r.output, r.breakdown)),
    };
    match run {
        Ok(out) => Some(out),
        Err(e) => {
            eprintln!("frontbench: direct {} execution failed: {e}", arm.label());
            None
        }
    }
}

fn arm_label(arm: ChooserArm) -> String {
    ARM_LABELS[PathChooser::ARMS.iter().position(|a| *a == arm).expect("one of the four arms")]
        .to_string()
}

/// Phase B's measurements besides the spans.
#[derive(Default)]
struct Probe {
    /// Session-minus-replay seconds, one per pair.
    remainder: Vec<f64>,
    /// Pair session and replay seconds, for the accounting line.
    pair_session: Vec<f64>,
    pair_replay: Vec<f64>,
    /// Per family: (entries to master, input rows) of direct executions.
    pruned: HashMap<Family, (u64, u64)>,
    rows_routed: u64,
    /// Pairs whose replay took another plan-cache path than the session.
    mirror_misses: u64,
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    ledger: &'a Ledger,
    client: Client<'a>,
    reps: Reps,
    probe: Probe,
    mirror: Mirror,
}

impl Ctx<'_> {
    /// Compare `out` of the call `what` with the reference answer.
    fn check(&mut self, shape: &Shape, out: Option<&QueryOutput>, what: &str) {
        match out {
            Some(o) if *o == shape.answer => {}
            Some(_) => self
                .ledger
                .mismatch(shape.family, &format!("{what} differs from Cluster::run_baseline")),
            // A direct call on a valid request has no reason to fail.
            None => self.ledger.mismatch(shape.family, &format!("{what} failed")),
        }
    }

    /// Probe one shape. `routed` is the benchmark's layout when the
    /// session already holds this shape's layout (resident shapes); a
    /// fresh shape is planned and routed inside each replay, as the
    /// session does on its first sight of a table.
    fn probe(&mut self, session: &Session, shape: &Shape, routed: Option<&Layout>) {
        let t = self.tracer;
        let fam = shape.family.name();
        let mut fresh_layout = None;
        for _ in 0..self.reps.pairs {
            let rid = request_id();
            let Some((resp, session_secs)) =
                self.client.call_as(session, shape, "pair.session", rid)
            else {
                continue;
            };
            let replay = t.open("replay", None, rid);
            let parent = Some(replay.id());
            let layout = match routed {
                Some(l) => l,
                None => {
                    let (plan, hit) = self.mirror.plan(t, parent, rid, shape);
                    if hit != resp.plan_cached {
                        self.probe.mirror_misses += 1;
                    }
                    let mut rows = 0;
                    fresh_layout =
                        Some(route(t, parent, rid, shape, plan, self.mirror.seed, &mut rows));
                    self.probe.rows_routed += rows;
                    fresh_layout.as_ref().expect("just routed")
                }
            };
            let (out, _) =
                t.time(format!("exec.{fam}.{}", arm_label(resp.arm)), parent, rid, || {
                    exec(&shape.query, layout, resp.arm)
                });
            let replay_secs = replay.close();
            // The session's bandit sees the response after its planner ran.
            self.mirror.observe(shape, &resp);
            self.check(shape, out.as_ref().map(|o| &o.0), "direct replay");
            if layout.left.len() != resp.breakdown.shards as usize {
                self.probe.mirror_misses += 1;
            }
            self.probe.pair_session.push(session_secs);
            self.probe.pair_replay.push(replay_secs);
            self.probe.remainder.push(session_secs - replay_secs);
        }
        let layout = match (routed, fresh_layout.as_ref()) {
            (Some(l), _) | (None, Some(l)) => l,
            (None, None) => return,
        };
        // Every arm on the same layout.
        for arm in PathChooser::ARMS {
            for _ in 0..self.reps.exec {
                let rid = request_id();
                let (out, _) = t.time(format!("exec.{fam}.{}", arm_label(arm)), None, rid, || {
                    exec(&shape.query, layout, arm)
                });
                if let Some((_, b)) = &out {
                    let e = self.probe.pruned.entry(shape.family).or_default();
                    e.0 += b.entries_to_master;
                    e.1 += shape.rows();
                }
                self.check(
                    shape,
                    out.as_ref().map(|o| &o.0),
                    &format!("direct {} run", arm.label()),
                );
            }
        }
        // Master merge over per-slice answers (Q(A_Q(D)) = Q(D): a pruned
        // shard's answer equals its slice's baseline answer).
        let cluster = Cluster::default();
        let parts: Vec<QueryOutput> = (0..layout.left.len())
            .map(|s| {
                let right = layout.right.as_ref().map(|r| &*r[s]);
                cluster.run_baseline(&shape.query, &layout.left[s], right).output
            })
            .collect();
        for _ in 0..self.reps.merge {
            let batch = parts.clone();
            let (merged, _) = t.time(format!("merge.{fam}"), None, request_id(), || {
                merge_shard_outputs(&shape.query, batch)
            });
            self.check(shape, Some(&merged), "merge of per-shard answers");
        }
        for _ in 0..self.reps.baseline {
            let (run, _) = t.time(format!("baseline.{fam}"), None, request_id(), || {
                cluster.run_baseline(&shape.query, &shape.left, shape.right.as_deref())
            });
            self.check(shape, Some(&run.output), "repeated baseline run");
        }
    }
}

/// The executor's fixed cost: a one-row request through each path.
fn fixed_cost(t: &Tracer) {
    let mut b = TableBuilder::new("one", vec![("k".into(), DataType::Int)], 1);
    b.push_row(vec![Value::Int(1)]);
    let one = vec![Arc::new(b.build())];
    let decision = PlanDecision::Fixed(ShardPartitioner::Hash);
    let stream = StreamLayout::from_units(
        vec![one.clone()],
        None,
        SessionConfig::default().ingest,
        decision,
        None,
        None,
        None,
    );
    let layout = Layout { left: one, right: None, stream, decision, plan: None };
    let q = DbQuery::Distinct { col: 0 };
    for (name, path) in [
        ("exec.fixed.pooled", ExecPath::BarrierPooled),
        ("exec.fixed.streamed", ExecPath::StreamedResident),
    ] {
        let arm = ChooserArm { path, backend: ExecBackend::Compiled };
        for _ in 0..FIXED_REPS {
            t.time(name, None, request_id(), || exec(&q, &layout, arm));
        }
    }
}

fn family_quantile(
    samples: &[Sample],
    f: Family,
    q: f64,
    pick: impl Fn(&Sample) -> f64,
) -> Option<f64> {
    let xs: Vec<f64> = samples.iter().filter(|s| s.family == f).map(pick).collect();
    quantile(&xs, q)
}

/// The traced run of `workload`; returns the per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    ledger: &Ledger,
    watchdog: &serve::Watchdog,
    out_dir: &std::path::Path,
) -> Metrics {
    let tracer = Tracer::new();
    let submit = workload == Workload::Dashboard;
    let plain = Client { ledger, watchdog, tracer: None, submit, paired: false };
    let traced = Client { tracer: Some(&tracer), ..plain };
    let blocking = Client { submit: false, ..plain };
    let probe_client = Client { tracer: Some(&tracer), submit: false, ..plain };
    let mut ctx = Ctx {
        tracer: &tracer,
        ledger,
        client: probe_client,
        reps: reps(workload),
        probe: Probe::default(),
        mirror: Mirror::new(),
    };
    let (mut untraced, mut served) = (Served::default(), Served::default());
    // Phase A alternates untraced and traced slices, so host drift
    // cancels out of `trace.overhead_frac`.
    let slice = seconds / PHASE_A_SLICES as f64;

    match workload {
        Workload::ScanLarge | Workload::Dashboard => {
            let shapes = if workload == Workload::ScanLarge {
                workload::scan_large(seed, scale)
            } else {
                workload::dashboard(seed, scale)
            };
            let session = serve::new_session();
            // Warm up through the session and the plan mirror in lockstep.
            let mirror = &mut ctx.mirror;
            blocking.warm_up(&session, &shapes, |shape, resp| {
                let _ = mirror.plan(&tracer, None, 0, shape);
                mirror.observe(shape, resp);
            });
            let pick: Box<dyn Fn(u64) -> usize> = match workload {
                Workload::ScanLarge => Box::new(|i| (i % 7) as usize),
                _ => Box::new(move |i| workload::dashboard_pick(seed, i)),
            };
            for k in 0..PHASE_A_SLICES {
                let (client, out) =
                    if k % 2 == 0 { (&plain, &mut untraced) } else { (&traced, &mut served) };
                serve::serve_resident(client, &session, &shapes, &*pick, slice, out);
            }
            ctx.client.submit = submit;
            for shape in &shapes {
                let rid = request_id();
                let (plan, _) = ctx.mirror.plan(&tracer, None, rid, shape);
                let mut rows = 0;
                let layout = route(&tracer, None, rid, shape, plan, ctx.mirror.seed, &mut rows);
                ctx.probe.rows_routed += rows;
                ctx.probe(&session, shape, Some(&layout));
            }
        }
        Workload::FreshTables => {
            let mut next = 0;
            for k in 0..PHASE_A_SLICES {
                let (client, out) =
                    if k % 2 == 0 { (&plain, &mut untraced) } else { (&traced, &mut served) };
                serve::serve_fresh(client, seed, scale, &mut next, slice, 1, out);
            }
            let session = serve::new_session();
            let warm = workload::fresh_batch(seed, scale, next, workload::FRESH_WARM);
            next += workload::FRESH_WARM;
            let mirror = &mut ctx.mirror;
            blocking.warm_up(&session, &warm, |shape, resp| {
                let _ = mirror.plan(&tracer, None, 0, shape);
                mirror.observe(shape, resp);
            });
            // Probe tables stay alive until the session is dropped.
            let probes = workload::fresh_batch(seed, scale, next, FRESH_PROBES);
            for shape in &probes {
                ctx.probe(&session, shape, None);
            }
            drop(session);
        }
    }
    fixed_cost(&tracer);

    let probe = &ctx.probe;
    let mut m = Metrics::default();
    let ms = |xs: &[f64]| median(xs).map(|v| v * 1e3);
    let secs: Vec<f64> = served.samples.iter().map(|s| s.secs).collect();
    let queue: Vec<f64> = served.samples.iter().map(|s| s.queue_secs * 1e3).collect();
    let n = served.samples.len().max(1) as f64;
    m.put("serve.remainder_ms", "ms", mean(&probe.remainder).map(|v| v * 1e3));
    m.put("serve.queue_ms.p50", "ms", quantile(&queue, 0.5));
    m.put("serve.queue_ms.p99", "ms", quantile(&queue, 0.99));
    let lookups = served.plan_hits + served.plan_misses;
    m.put(
        "serve.plan_hit_rate",
        "frac",
        Some(if lookups == 0 { 0.0 } else { served.plan_hits as f64 / lookups as f64 }),
    );
    m.put(
        "serve.compiled_share",
        "frac",
        Some(
            served.samples.iter().filter(|s| s.arm.backend == ExecBackend::Compiled).count() as f64
                / n,
        ),
    );
    m.put(
        "serve.streamed_share",
        "frac",
        Some(
            served.samples.iter().filter(|s| s.arm.path == ExecPath::StreamedResident).count()
                as f64
                / n,
        ),
    );
    // The first session of the run: later ones reuse the heap pages their
    // predecessors freed, which hides retained memory from RSS.
    m.put("serve.rss_kb_per_request", "KB", untraced.rss_kb_per_request.first().copied());
    m.put("planner.plan_ms", "ms", ms(&tracer.durations("planner.plan")));
    m.put("planner.shards", "count", mean(&ctx.mirror.shards));
    let keys = tracer.durations("route.keys");
    let split = tracer.durations("route.split");
    m.put("route.keys_ms", "ms", ms(&keys));
    m.put("route.split_ms", "ms", ms(&split));
    let route_secs: f64 = keys.iter().chain(&split).sum();
    m.put(
        "route.rows_per_s",
        "rows/s",
        (route_secs > 0.0).then(|| probe.rows_routed as f64 / route_secs),
    );
    for f in Family::ALL {
        for arm in ARM_LABELS {
            m.put(
                &format!("exec.{}.{arm}_ms", f.name()),
                "ms",
                ms(&tracer.durations(&format!("exec.{}.{arm}", f.name()))),
            );
        }
    }
    m.put(
        "exec.fixed_us.pooled",
        "us",
        median(&tracer.durations("exec.fixed.pooled")).map(|v| v * 1e6),
    );
    m.put(
        "exec.fixed_us.streamed",
        "us",
        median(&tracer.durations("exec.fixed.streamed")).map(|v| v * 1e6),
    );
    for f in Family::ALL {
        m.put(
            &format!("merge.{}_ms", f.name()),
            "ms",
            ms(&tracer.durations(&format!("merge.{}", f.name()))),
        );
    }
    for f in Family::ALL {
        let frac = probe
            .pruned
            .get(&f)
            .filter(|(_, rows)| *rows > 0)
            .map(|(e, rows)| *e as f64 / *rows as f64);
        m.put(&format!("prune.{}.survivor_frac", f.name()), "frac", frac);
    }
    let baseline: HashMap<Family, Option<f64>> = Family::ALL
        .iter()
        .map(|f| (*f, median(&tracer.durations(&format!("baseline.{}", f.name())))))
        .collect();
    for f in Family::ALL {
        m.put(&format!("baseline.{}_ms", f.name()), "ms", baseline[&f].map(|v| v * 1e3));
    }
    for f in Family::ALL {
        let session_p50 = family_quantile(&untraced.samples, f, 0.5, |s| s.secs);
        m.put(
            &format!("speedup.{}", f.name()),
            "x",
            baseline[&f].zip(session_p50).map(|(b, s)| b / s),
        );
    }
    for f in Family::ALL {
        m.put(
            &format!("model.transfer_ms.{}", f.name()),
            MODELLED_MS,
            family_quantile(&served.samples, f, 0.5, |s| s.net_secs * 1e3),
        );
    }
    for f in Family::ALL {
        m.put(
            &format!("model.ingest_ms.{}", f.name()),
            MODELLED_MS,
            family_quantile(&served.samples, f, 0.5, |s| s.ingest_secs * 1e3),
        );
    }
    let plain_secs: Vec<f64> = untraced.samples.iter().map(|s| s.secs).collect();
    m.put(
        "trace.overhead_frac",
        "frac",
        mean(&secs).zip(mean(&plain_secs)).map(|(t, u)| t / u - 1.0),
    );

    // Accounting: the paired session time splits into the direct layer
    // calls of the replay plus the front door's remainder.
    let pair_ms = |xs: &[f64]| mean(xs).unwrap_or(0.0) * 1e3;
    eprintln!(
        "frontbench: accounting ({} pairs): session {:.4} ms = replay {:.4} ms (planner+route+exec) + remainder {:.4} ms; phase-A request mean {:.4} ms, queue mean {:.4} ms; mirror disagreements {}",
        probe.remainder.len(),
        pair_ms(&probe.pair_session),
        pair_ms(&probe.pair_replay),
        pair_ms(&probe.remainder),
        mean(&secs).unwrap_or(0.0) * 1e3,
        mean(&queue).unwrap_or(0.0),
        probe.mirror_misses,
    );
    let spans = tracer.spans();
    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(&path, crate::span::to_jsonl(&spans)))
    {
        eprintln!("frontbench: could not write {}: {e}", path.display());
    }
    m
}
