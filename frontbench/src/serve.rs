//! Closed-loop clients driving the public front door
//! (`Session::run_blocking` / `Session::submit`), with the answer check,
//! failure accounting and the stuck-request watchdog.

use crate::span::Tracer;
use crate::workload::{self, Family, Scale, Shape, Workload};
use cheetah_db::{ChooserArm, Cluster};
use cheetah_serve::{QueryRequest, QueryResponse, Session, SessionConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests sent per shape before timing starts. Fixed, and at least
/// four, so the bandit's forced first play of every arm happens inside
/// set-up.
pub const WARMUP_PER_SHAPE: usize = 4;
/// fresh-tables: measured requests per session epoch. The session and
/// every table of the epoch are dropped together at its end.
pub const FRESH_EPOCH_REQUESTS: u64 = 112;
/// A request that has not returned after this long fails the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(45);

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub family: Family,
    pub secs: f64,
    /// Wall seconds of the baseline engine answering the same request
    /// right before or after it, when the client pairs requests.
    pub base_secs: Option<f64>,
    pub rows: u64,
    pub entries: u64,
    pub arm: ChooserArm,
    pub queue_secs: f64,
    pub net_secs: f64,
    pub ingest_secs: f64,
}

/// What a stretch of serving produced.
#[derive(Default)]
pub struct Served {
    pub samples: Vec<Sample>,
    /// Wall time of the measured stretches.
    pub wall: f64,
    /// Set-up times: `Session::new` to the end of the warm-up.
    pub setups: Vec<f64>,
    /// Session RSS growth per measured request, one value per session.
    pub rss_kb_per_request: Vec<f64>,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

/// The run's correctness and failure ledger, shared by all clients.
pub struct Ledger {
    pub workload: Workload,
    pub seed: u64,
    attempted: AtomicU64,
    failed: AtomicU64,
    wrong: Mutex<Vec<String>>,
}

impl Ledger {
    pub fn new(workload: Workload, seed: u64) -> Ledger {
        Ledger {
            workload,
            seed,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            wrong: Mutex::new(Vec::new()),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn wrong(&self) -> Vec<String> {
        self.wrong.lock().expect("ledger").clone()
    }

    /// Record an answer that differs from the baseline engine's.
    pub fn mismatch(&self, family: Family, what: &str) {
        let msg = format!(
            "wrong answer: workload {} family {} seed {}: {what}",
            self.workload.name(),
            family.name(),
            self.seed
        );
        eprintln!("frontbench: {msg}");
        self.wrong.lock().expect("ledger").push(msg);
    }
}

/// Fails the run when the client's request stays in flight past
/// [`REQUEST_TIMEOUT`], instead of letting a lost ticket stall it.
pub struct Watchdog {
    base: Instant,
    /// Nanoseconds since `base` when the request in flight was sent, or
    /// 0 when idle.
    since: AtomicU64,
    stop: AtomicBool,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        Watchdog { base: Instant::now(), since: AtomicU64::new(0), stop: AtomicBool::new(false) }
    }

    fn begin(&self) {
        self.since.store(self.base.elapsed().as_nanos() as u64 + 1, Ordering::SeqCst);
    }

    fn end(&self) {
        self.since.store(0, Ordering::SeqCst);
    }

    /// Poll until [`Watchdog::stop`]; exits the process on a stuck request.
    pub fn watch(&self, ledger: &Ledger) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            let now = self.base.elapsed().as_nanos() as u64;
            let since = self.since.load(Ordering::SeqCst);
            if since != 0 && now.saturating_sub(since) > REQUEST_TIMEOUT.as_nanos() as u64 {
                eprintln!(
                    "frontbench: request did not return within {:?}: workload {} seed {}",
                    REQUEST_TIMEOUT,
                    ledger.workload.name(),
                    ledger.seed
                );
                std::process::exit(3);
            }
        }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Everything one client needs to send requests.
#[derive(Clone, Copy)]
pub struct Client<'a> {
    pub ledger: &'a Ledger,
    pub watchdog: &'a Watchdog,
    pub tracer: Option<&'a Tracer>,
    /// `submit(..).wait()` instead of `run_blocking`.
    pub submit: bool,
    /// Time `Cluster::run_baseline` on every measured request, next to
    /// the session's answer (see [`Client::sample`]).
    pub paired: bool,
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// A fresh request id for spans.
pub fn request_id() -> u64 {
    REQUEST_IDS.fetch_add(1, Ordering::Relaxed)
}

pub fn request(shape: &Shape) -> QueryRequest {
    let mut req = QueryRequest::new(shape.query.clone(), shape.left.clone()).tenant(&shape.tenant);
    if let Some(r) = &shape.right {
        req = req.with_right(r.clone());
    }
    req
}

pub fn new_session() -> Session {
    Session::new(Cluster::default(), SessionConfig::default())
}

impl Client<'_> {
    /// Send one request, check its answer, and return the response with
    /// the client-observed wall time. The request is built before the
    /// clock starts.
    pub fn call(&self, session: &Session, shape: &Shape) -> Option<(QueryResponse, f64)> {
        self.call_as(session, shape, "request", request_id())
    }

    /// [`Client::call`], traced (when tracing) as span `name` of request `rid`.
    pub fn call_as(
        &self,
        session: &Session,
        shape: &Shape,
        name: &str,
        rid: u64,
    ) -> Option<(QueryResponse, f64)> {
        let req = request(shape);
        self.ledger.attempted.fetch_add(1, Ordering::Relaxed);
        let span = self.tracer.map(|t| t.open(name, None, rid));
        self.watchdog.begin();
        let t = Instant::now();
        let result = if self.submit {
            session.submit(req).and_then(|t| t.wait())
        } else {
            session.run_blocking(req)
        };
        let secs = t.elapsed().as_secs_f64();
        self.watchdog.end();
        if let Some(s) = span {
            s.close();
        }
        match result {
            Ok(resp) => {
                if resp.output != shape.answer {
                    self.ledger.mismatch(
                        shape.family,
                        "session output differs from Cluster::run_baseline",
                    );
                }
                Some((resp, secs))
            }
            Err(e) => {
                eprintln!("frontbench: {} request failed: {e}", shape.family.name());
                self.ledger.failed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`Client::call`], kept as a measured sample. A paired client also
    /// times the baseline engine on the same request, back to back with
    /// the session, going first on every other sample so neither side
    /// always finds the other's data in cache. Both halves of a pair see
    /// the same host, however fast it runs at that moment.
    fn sample(&self, session: &Session, shape: &Shape, out: &mut Vec<Sample>) {
        let base_first = out.len() % 2 == 1;
        let mut base_secs = None;
        let mut baseline = || {
            if self.paired {
                let t = Instant::now();
                let run = Cluster::default().run_baseline(
                    &shape.query,
                    &shape.left,
                    shape.right.as_deref(),
                );
                base_secs = Some(t.elapsed().as_secs_f64());
                if run.output != shape.answer {
                    self.ledger.mismatch(shape.family, "baseline engine output changed on rerun");
                }
            }
        };
        if base_first {
            baseline();
        }
        let answered = self.call(session, shape);
        if !base_first {
            baseline();
        }
        if let Some((resp, secs)) = answered {
            out.push(Sample {
                family: shape.family,
                secs,
                base_secs,
                rows: shape.rows(),
                entries: resp.breakdown.entries_to_master,
                arm: resp.arm,
                queue_secs: resp.breakdown.queue_seconds,
                net_secs: resp.breakdown.network_seconds(10.0),
                ingest_secs: resp.breakdown.master_ingest_seconds,
            });
        }
    }

    /// The fixed warm-up: every shape [`WARMUP_PER_SHAPE`] times, in
    /// order, through `run_blocking`. `after` sees each answered request.
    pub fn warm_up(
        &self,
        session: &Session,
        shapes: &[Shape],
        mut after: impl FnMut(&Shape, &QueryResponse),
    ) {
        let blocking = Client { submit: false, ..*self };
        for _ in 0..WARMUP_PER_SHAPE {
            for shape in shapes {
                if let Some((resp, _)) = blocking.call(session, shape) {
                    after(shape, &resp);
                }
            }
        }
    }
}

/// Resident workloads: `reps` set-ups (new session + warm-up), keeping
/// the last session. Earlier sessions are dropped outside the clock.
pub fn set_up_resident(
    client: &Client,
    shapes: &[Shape],
    reps: usize,
    served: &mut Served,
) -> Session {
    let mut session = None;
    for _ in 0..reps.max(1) {
        drop(session.take());
        let t = Instant::now();
        let s = new_session();
        client.warm_up(&s, shapes, |_, _| {});
        served.setups.push(t.elapsed().as_secs_f64());
        session = Some(s);
    }
    session.expect("at least one set-up")
}

/// Resident workloads: one closed-loop client for `seconds`, sending
/// `shapes[pick(i)]` as its `i`-th request.
pub fn serve_resident(
    client: &Client,
    session: &Session,
    shapes: &[Shape],
    pick: &dyn Fn(u64) -> usize,
    seconds: f64,
    served: &mut Served,
) {
    let before = session.stats();
    let rss0 = rss_kb();
    let n0 = served.samples.len();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        client.sample(session, &shapes[pick(i)], &mut served.samples);
        i += 1;
    }
    served.wall += t0.elapsed().as_secs_f64();
    let n = served.samples.len() - n0;
    let after = session.stats();
    served.plan_hits += after.plan_hits - before.plan_hits;
    served.plan_misses += after.plan_misses - before.plan_misses;
    served.rss_kb_per_request.push((rss_kb() - rss0) / n.max(1) as f64);
}

/// fresh-tables: session epochs until `seconds` have passed (at least
/// `min_epochs`). Each epoch builds its warm-up and measured tables and
/// their reference answers first, then times `Session::new` plus the
/// warm-up (set-up) and the [`FRESH_EPOCH_REQUESTS`] measured requests,
/// then drops the session with its tables. `next` is the index of the
/// next fresh request; it advances.
pub fn serve_fresh(
    client: &Client,
    seed: u64,
    scale: &Scale,
    next: &mut u64,
    seconds: f64,
    min_epochs: usize,
    served: &mut Served,
) {
    let t_start = Instant::now();
    let mut epochs = 0;
    while epochs < min_epochs || t_start.elapsed().as_secs_f64() < seconds {
        let mut take = |n: u64| -> Vec<Shape> {
            let v = workload::fresh_batch(seed, scale, *next, n);
            *next += n;
            v
        };
        // Warm-up covers each (name, family) shape; WARMUP_PER_SHAPE
        // rounds of it are sent by `warm_up`.
        let warm = take(workload::FRESH_WARM);
        let measured = take(FRESH_EPOCH_REQUESTS);
        let t = Instant::now();
        let session = new_session();
        client.warm_up(&session, &warm, |_, _| {});
        served.setups.push(t.elapsed().as_secs_f64());
        let rss0 = rss_kb();
        let t0 = Instant::now();
        for shape in &measured {
            client.sample(&session, shape, &mut served.samples);
        }
        served.wall += t0.elapsed().as_secs_f64();
        served.rss_kb_per_request.push((rss_kb() - rss0) / measured.len() as f64);
        let stats = session.stats();
        served.plan_hits += stats.plan_hits;
        served.plan_misses += stats.plan_misses;
        drop(session);
        drop((warm, measured));
        epochs += 1;
    }
}

/// Resident set size of this process now, in KiB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

/// Peak resident set size of this process, in KiB.
pub fn peak_rss_kb() -> f64 {
    proc_status_kb("VmHWM:")
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}
