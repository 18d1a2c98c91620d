//! Serving-plane contract gate: the `Session` front door must change
//! *when* answers arrive — never *what* they say — and must degrade by
//! typed rejection, not by collapse.
//!
//! Three properties, mirroring the tentpole's promises:
//!
//! 1. **Concurrent bit-identity** — N tenants submitting a mixed bag of
//!    query variants concurrently get results bit-identical to
//!    sequential single-query baseline runs.
//! 2. **No starvation** — a 1-request tenant completes while a flooding
//!    tenant keeps the queue saturated.
//! 3. **Typed overload** — past the in-flight bound, `submit` returns
//!    `Error::Overloaded` immediately instead of growing memory.
//! 4. **No stale layouts** — a table the caller drops takes its routed
//!    layout with it, and a new table (which may reuse the freed
//!    address) is answered from its own rows.

mod common;

use cheetah_db::{Cluster, DbQuery, QueryOutput, Table};
use cheetah_serve::{Error, QueryRequest, Session, SessionConfig};
use std::sync::Arc;

fn fixtures(seed: u64) -> (Arc<Table>, Arc<Table>) {
    let left = Arc::new(common::gen_table(4_000, 120, 4, seed));
    let right = Arc::new(common::gen_table(1_500, 120, 3, seed ^ 0xFACE));
    (left, right)
}

fn request(q: &DbQuery, left: &Arc<Table>, right: &Arc<Table>, tenant: &str) -> QueryRequest {
    let req = QueryRequest::new(q.clone(), Arc::clone(left)).tenant(tenant);
    if q.is_binary() {
        req.with_right(Arc::clone(right))
    } else {
        req
    }
}

/// Property 1: four tenants, every query variant, submitted all at once
/// — each response must equal the sequential baseline bit for bit.
#[test]
fn concurrent_tenants_get_bit_identical_results() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0x5EED);
    let queries = common::all_seven(400_000);

    // Sequential ground truth, one query at a time, no serving plane.
    let baselines: Vec<QueryOutput> = queries
        .iter()
        .map(|q| {
            let r = q.is_binary().then_some(&*right);
            cluster.run_baseline(q, &left, r).output
        })
        .collect();

    let session = Session::new(cluster, SessionConfig::default());
    let tenants = ["alpha", "beta", "gamma", "delta"];
    // Fan everything out before redeeming a single ticket, so the
    // session genuinely holds concurrent work from every tenant.
    let mut tickets = Vec::new();
    for (t_idx, tenant) in tenants.iter().enumerate() {
        for (q_idx, q) in queries.iter().enumerate() {
            let ticket = session
                .submit(request(q, &left, &right, tenant))
                .expect("default capacity admits this burst");
            tickets.push((t_idx, q_idx, ticket));
        }
    }
    for (t_idx, q_idx, ticket) in tickets {
        let resp = ticket.wait().expect("admitted requests complete");
        assert_eq!(
            resp.output,
            baselines[q_idx],
            "tenant {} query {} diverged from the sequential baseline",
            tenants[t_idx],
            queries[q_idx].kind()
        );
        assert_eq!(resp.breakdown.tenant, tenants[t_idx]);
        assert!(resp.breakdown.queue_seconds >= 0.0);
    }
    let stats = session.stats();
    assert_eq!(stats.completed, (tenants.len() * queries.len()) as u64);
    assert_eq!(stats.rejected, 0);
}

/// Property 1b: repeat shapes must come out of the plan cache, and the
/// cached plan must keep producing baseline-identical output.
#[test]
fn plan_cache_reuse_preserves_results() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0xCAFE);
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let baseline = cluster.run_baseline(&q, &left, None).output;

    let session = Session::new(cluster, SessionConfig::default());
    for round in 0..8 {
        let resp = session.run_blocking(request(&q, &left, &right, "repeat")).unwrap();
        assert_eq!(resp.output, baseline, "round {round}");
        assert_eq!(resp.plan_cached, round > 0, "round {round}");
    }
    let stats = session.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 7);
}

/// Property 2: a flooding tenant saturating the queue must not keep a
/// 1-request tenant from completing.
#[test]
fn light_tenant_completes_under_flood() {
    let (left, right) = fixtures(0xF100D);
    let session = Session::new(
        Cluster::default(),
        // One driver makes the ordering fully scheduler-determined.
        SessionConfig { drivers: 1, max_in_flight: 512, ..SessionConfig::default() },
    );
    let q = DbQuery::Distinct { col: 0 };

    // 64 flood requests first, then the light tenant's single one.
    let flood_tickets: Vec<_> =
        (0..64).map(|_| session.submit(request(&q, &left, &right, "flood")).unwrap()).collect();
    let light_ticket = session.submit(request(&q, &left, &right, "light")).unwrap();

    // The light tenant's request completes even though 64 flood
    // requests were queued ahead of it — DRR must interleave, so
    // waiting on the light ticket alone (before draining any flood
    // ticket) must return after a handful of flood services, not all 64.
    let light = light_ticket.wait().expect("light tenant completes");
    assert_eq!(light.breakdown.tenant, "light");
    let completed_at_light = session.stats().completed;
    assert!(
        completed_at_light <= 32,
        "light tenant waited for {completed_at_light} completions — starved behind the flood"
    );

    let mut flood_done = 0u64;
    for t in flood_tickets {
        t.wait().expect("flood requests also complete");
        flood_done += 1;
    }
    assert_eq!(flood_done, 64);
}

/// Property 3: past the in-flight bound the session rejects with the
/// typed error, immediately, and keeps serving what it admitted.
#[test]
fn overload_is_a_typed_rejection_not_memory_growth() {
    let (left, right) = fixtures(0x0F10);
    let capacity = 4usize;
    let session = Session::new(
        Cluster::default(),
        SessionConfig { max_in_flight: capacity, drivers: 1, ..SessionConfig::default() },
    );
    let q = DbQuery::Distinct { col: 0 };

    let mut admitted = Vec::new();
    let mut rejections = 0usize;
    for i in 0..256 {
        match session.submit(request(&q, &left, &right, &format!("t{}", i % 8))) {
            Ok(ticket) => admitted.push(ticket),
            Err(Error::Overloaded { in_flight, capacity: cap }) => {
                assert_eq!(cap, capacity);
                assert!(in_flight >= capacity, "rejection below the bound");
                rejections += 1;
            }
            Err(e) => panic!("overload must be Error::Overloaded, got {e}"),
        }
        // The queue can never hold more than the bound.
        assert!(session.in_flight() <= capacity);
    }
    assert!(
        rejections >= 256 - capacity * 8,
        "a 256-burst at capacity {capacity} must shed most of its load, shed {rejections}"
    );
    for t in admitted {
        t.wait().expect("admitted requests still complete under overload");
    }
    assert_eq!(session.stats().rejected, rejections as u64);
}

/// Property 4: twenty tables built, queried and dropped one after
/// another. Each answer must equal the baseline on *that* table, and the
/// layout cache must never hold more entries than there are live tables.
#[test]
fn dropped_tables_never_answer_for_their_successors() {
    let cluster = Cluster::default();
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let q = common::all_seven(0).swap_remove(0);
    let entries = || session.registry().snapshot().gauges["serve.layout_cache.entries"];
    let rounds = 20u64;
    for i in 0..rounds {
        let table = Arc::new(common::gen_table(5_000, 120, 1, 0xD20F ^ i));
        let want = cluster.run_baseline(&q, &table, None).output;
        let resp = session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(&table))).unwrap();
        assert_eq!(resp.output, want, "table {i} was answered from another table's layout");
        assert!(entries() <= 1, "table {i}: more layouts than live tables");
        drop(table);
    }
    let evictions = session.registry().snapshot().counters["serve.layout_cache.evictions"];
    assert_eq!(evictions, rounds - 1, "every dropped table's layout is swept");
}
