//! The adaptive shard planner: sample the routing keys, estimate skew
//! and size, emit a concrete [`ShardPlan`].
//!
//! The `shards` sweep shows what a fixed spec costs: under key skew a
//! fixed range partitioner piles the hot keys onto one shard and the
//! whole run serializes behind it, while a fixed shard count either
//! wastes workers on small inputs or starves large ones. The planner
//! replaces both hand-picked choices with one sampling pass over the
//! per-query routing keys (the same keys [`Cluster::run_cheetah_sharded`]
//! routes by — key extraction lives *here*, in one place, and the sharded
//! layer consumes it):
//!
//! 1. **Sample** — a seeded reservoir ([`KeySampler`]) over every
//!    stream's routing keys, plus a KMV distinct sketch and the top-key
//!    mass.
//! 2. **Choose the shard count** — walk the
//!    [`MasterIngestModel::planning_latency`] fan-in curve: each
//!    candidate count is charged the hottest shard's share of the rows
//!    at the CWorker send rate (worker phase) plus the modelled
//!    survivor-stream ingest and per-shard merge overhead (master
//!    phase); stop adding shards where the modelled merge cost eats the
//!    pruning win.
//! 3. **Choose the partitioner** — fit range boundaries to the sampled
//!    quantiles; keep them when the fitted plan's max sampled shard load
//!    stays within [`PlannerConfig::range_load_factor`] (default 2×) of
//!    hash on the same sample, fall back to hash when skew concentrates.
//!
//! The emitted [`PlanReport`] records
//! every estimate and modelled cost the decision read, so tests and
//! humans audit the choice instead of trusting it. Plans are
//! deterministic: same seed + same tables ⇒ identical [`ShardPlan`].

use crate::engine::Cluster;
use crate::executor::Tables;
use crate::operators::encode_str_key;
use crate::query::DbQuery;
use crate::sharded::{ShardSpec, ShardedRun};
use crate::table::{Column, Table, TableBuilder};
use crate::value::encode_ordered_i64;
use cheetah_core::plan::{
    fit_boundaries, max_load_fraction, KeySampler, PlanDecision, PlanReport, ShardCostPoint,
    ShardPlan,
};
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_net::MasterIngestModel;
use cheetah_switch::hash::mix64;
use cheetah_switch::HashFn;

/// Tuning of the sample-driven shard planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Reservoir capacity: how many routing keys the quantile fit and
    /// the load evaluation see.
    pub sample_size: usize,
    /// Largest worker count the fan-in walk considers.
    pub max_shards: usize,
    /// Fitted range is kept while its max sampled shard load stays
    /// within this factor of hash's on the same sample (the planner
    /// contract's 2× bound).
    pub range_load_factor: f64,
    /// Fixed per-shard master-side cost (planning one switch program,
    /// merging one more output) charged by the shard-count model.
    pub per_shard_overhead_seconds: f64,
    /// Ingest model queried for the fan-in curve and applied to the
    /// planned run's survivor streams.
    pub ingest: MasterIngestModel,
    /// The measurements a [`PlannerConfig::calibrate`] run recorded, when
    /// this config's constants came from a probe instead of the
    /// hard-coded defaults.
    pub calibration: Option<Calibration>,
    /// Measured survivor volume (`entries_to_master`) from a previous run
    /// of the same query, when a [`PathChooser`] (or caller) observed one.
    /// Overrides the distinct-estimate proxy in the merge model — crucial
    /// for high-fanout JOINs, where survivors are matching *rows*, not
    /// distinct keys, and the proxy under-prices the merge badly.
    pub survivor_hint: Option<u64>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            sample_size: 1024,
            max_shards: 16,
            range_load_factor: 2.0,
            per_shard_overhead_seconds: 300e-6,
            ingest: MasterIngestModel::default_rack(),
            calibration: None,
            survivor_hint: None,
        }
    }
}

/// What one [`PlannerConfig::calibrate`] probe measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Rows the throughput probe serialized.
    pub probe_rows: u64,
    /// Measured worker serialize rate (entries/second), installed as the
    /// cost model's arrival rate.
    pub measured_arrival_rate: f64,
    /// Measured fixed cost of standing up one more shard (planning +
    /// running one degenerate switch program), installed as
    /// `per_shard_overhead_seconds`.
    pub measured_overhead_seconds: f64,
}

impl PlannerConfig {
    /// Replace the hard-coded cost constants with measured ones from a
    /// short calibration run over (a slice of) the actual input:
    ///
    /// * **per-shard overhead** — the wall time of a complete executor
    ///   run over a tiny slice, which is dominated by exactly the fixed
    ///   work every additional shard pays (planning its own switch
    ///   program, standing up its pipeline, one more merge input);
    /// * **arrival rate** — the measured CWorker serialize rate over a
    ///   larger probe slice, replacing the nominal 10 M entries/s the
    ///   default model assumes.
    ///
    /// Best-effort: an empty input or a probe failure returns the config
    /// unchanged. The probe is seeded data (the table's own first rows),
    /// but the measurements are wall-clock — calibrated plans trade the
    /// planner's bit-determinism for a model that matches this machine.
    pub fn calibrate(mut self, cluster: &Cluster, tables: &Tables<'_>) -> PlannerConfig {
        const PROBE_ROWS: usize = 512;
        const OVERHEAD_ROWS: usize = 32;
        const REPS: usize = 3;
        let probe = probe_slice(tables.left, PROBE_ROWS);
        if probe.rows() == 0 {
            return self;
        }
        let q = DbQuery::Distinct { col: 0 };
        // Fixed cost: the fastest of a few tiny complete runs.
        let tiny = probe_slice(tables.left, OVERHEAD_ROWS);
        let mut overhead = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = std::time::Instant::now();
            if cluster.run_cheetah(&q, &tiny, None).is_err() {
                return self;
            }
            overhead = overhead.min(t0.elapsed().as_secs_f64());
        }
        // Serialize rate: rows over the measured worker phase.
        let mut worker_seconds = f64::INFINITY;
        for _ in 0..REPS {
            match cluster.run_cheetah(&q, &probe, None) {
                Ok(run) => worker_seconds = worker_seconds.min(run.breakdown.worker_seconds),
                Err(_) => return self,
            }
        }
        let rate = probe.rows() as f64 / worker_seconds.max(1e-9);
        let calibration = Calibration {
            probe_rows: probe.rows() as u64,
            measured_arrival_rate: rate,
            measured_overhead_seconds: overhead,
        };
        self.per_shard_overhead_seconds = overhead.max(1e-9);
        self.ingest.arrival_rate = rate.max(1.0);
        self.calibration = Some(calibration);
        self
    }
}

/// The first `rows` rows of `table` as one single-partition table — the
/// calibration probe's input.
fn probe_slice(table: &Table, rows: usize) -> Table {
    let take = table.rows().min(rows);
    // `take + 1` keeps the builder's automatic partition cadence
    // unreachable: the probe is exactly one partition.
    let mut b = TableBuilder::new(table.name(), table.fields().to_vec(), take + 1);
    let mut left = take;
    'outer: for p in table.partitions() {
        for r in 0..p.rows() {
            if left == 0 {
                break 'outer;
            }
            b.push_row(p.row(r));
            left -= 1;
        }
    }
    b.build()
}

/// The sample-driven shard planner.
///
/// # Worked example
///
/// A skewed table: 4000 rows, 90 % of them under ten hot keys. The
/// planner samples the GROUP BY routing keys, reads the skew, and picks
/// a concrete plan whose report explains the choice:
///
/// ```
/// use cheetah_db::{Cluster, DataType, DbQuery, ShardPlanner, TableBuilder, Value};
///
/// let mut b = TableBuilder::new(
///     "visits",
///     vec![("agent".into(), DataType::Str), ("ms".into(), DataType::Int)],
///     500,
/// );
/// for i in 0..4000i64 {
///     let agent = if i % 10 < 9 { format!("hot-{}", i % 10) } else { format!("cold-{i}") };
///     b.push_row(vec![Value::Str(agent), Value::Int(i % 997)]);
/// }
/// let table = b.build();
///
/// let cluster = Cluster::default();
/// let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
/// let planner = ShardPlanner::default();
/// let plan = planner.plan(&q, &table, None, cluster.tuning.seed);
///
/// // The report carries every estimate the decision read…
/// assert_eq!(plan.report.rows, 4000);
/// assert!(plan.report.distinct_estimate > 10.0);
/// assert!(plan.shards() >= 1 && plan.shards() <= 16);
/// println!("{}", plan.report.reason);
///
/// // …and the planned run completes bit-identically to the baseline.
/// let base = cluster.run_baseline(&q, &table, None);
/// let planned = cluster.run_cheetah_planned(&q, &table, None, &planner).unwrap();
/// assert_eq!(base.output, planned.output);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardPlanner {
    /// The planner's tuning.
    pub cfg: PlannerConfig,
}

impl ShardPlanner {
    /// A planner with the given tuning.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self { cfg }
    }

    /// Plan the sharded execution of `q` over the given tables: sample
    /// the per-query routing keys of every stream and emit the plan.
    pub fn plan(&self, q: &DbQuery, left: &Table, right: Option<&Table>, seed: u64) -> ShardPlan {
        let left_keys = routing_keys(q, 0, left, seed);
        let right_keys = right.map(|r| routing_keys(q, 1, r, seed));
        let slices: Vec<&[u64]> =
            std::iter::once(left_keys.as_slice()).chain(right_keys.as_deref()).collect();
        self.plan_from_keys(&slices, seed)
    }

    /// Plan from precomputed routing-key streams (what
    /// [`Cluster::run_cheetah_planned`] and the streamed runtime use so
    /// the keys are extracted once for sampling *and* routing).
    pub fn plan_from_keys(&self, key_slices: &[&[u64]], seed: u64) -> ShardPlan {
        let mut sampler = KeySampler::new(self.cfg.sample_size, seed);
        for &stream in key_slices {
            for &k in stream {
                sampler.offer(k);
            }
        }
        let stats = sampler.finish();

        if stats.rows == 0 {
            return self.trivial_plan(stats, seed, "empty input: any routing is vacuous");
        }
        if stats.all_keys_equal() {
            // Key-aligned routing pins a single key to one shard; extra
            // workers would only idle and add merge overhead.
            return self.trivial_plan(
                stats,
                seed,
                "all sampled routing keys are equal: no partitioner can spread them",
            );
        }

        // Survivor volume for the merge model. A measured hint (fed back
        // by a [`PathChooser`] from an observed `entries_to_master`) wins
        // outright — it is reality, and deliberately NOT clamped to
        // `rows`: a two-pass JOIN delivers matching rows from *both*
        // streams, which the per-stream row count would truncate. Absent
        // a measurement, fall back to the proxy of roughly one survivor
        // per distinct routing key (keyed queries forward per-key
        // champions; scans route by unique row-id hashes, making this
        // `rows` — conservatively assuming nothing is pruned).
        let survivors = match self.cfg.survivor_hint {
            Some(measured) => measured.max(1),
            None => (stats.distinct_estimate.round() as u64).clamp(1, stats.rows),
        };

        // Walk the fan-in curve: per candidate count, the hottest shard's
        // share of the rows at the CWorker send rate, plus modelled
        // ingest and per-shard merge overhead.
        let mut curve = Vec::with_capacity(self.cfg.max_shards);
        let mut per_count = Vec::with_capacity(self.cfg.max_shards);
        for n in 1..=self.cfg.max_shards.max(1) {
            let choice = self.partitioner_at(&stats.sample, n, seed);
            let worker_seconds =
                stats.rows as f64 * choice.load / self.cfg.ingest.arrival_rate.max(1.0);
            let merge_seconds = self.cfg.ingest.planning_latency(n, survivors)
                + n as f64 * self.cfg.per_shard_overhead_seconds;
            curve.push(ShardCostPoint { shards: n, worker_seconds, merge_seconds });
            per_count.push(choice);
        }
        let best = curve
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total().partial_cmp(&b.total()).expect("finite costs"))
            .map(|(i, _)| i)
            .expect("at least one candidate");
        let chosen = per_count.swap_remove(best);
        let shards = best + 1;

        // The first candidate *past the chosen count* whose modelled
        // completion rises again — where merge cost starts eating the
        // pruning win (absent when the chosen count is the axis maximum).
        let turn =
            curve[best + 1..].iter().find(|p| p.total() > curve[best].total()).map(|p| p.shards);
        let reason = format!(
            "chose {} × {}: sampled {}/{} keys, ~{:.0} distinct, top-key mass {:.2}; \
             fitted-range sample load {:.2} vs hash {:.2} (factor {}); modelled completion \
             {:.2} ms{}",
            shards,
            chosen.partitioner.name(),
            stats.sample.len(),
            stats.rows,
            stats.distinct_estimate,
            stats.top_key_mass,
            chosen.range_load,
            chosen.hash_load,
            self.cfg.range_load_factor,
            curve[best].total() * 1e3,
            match turn {
                Some(n) => format!(", merge cost eats the win from {n} shards on"),
                None => String::new(),
            },
        );
        ShardPlan {
            sharder: chosen.sharder,
            report: PlanReport {
                rows: stats.rows,
                sample_len: stats.sample.len(),
                distinct_estimate: stats.distinct_estimate,
                top_key_mass: stats.top_key_mass,
                shards,
                partitioner: chosen.partitioner,
                hash_sample_load: chosen.hash_load,
                range_sample_load: chosen.range_load,
                curve,
                reason,
            },
        }
    }

    /// The adaptive partitioner choice at a candidate shard count: fitted
    /// range when the sampled quantiles spread the load, hash when skew
    /// concentrates it.
    fn partitioner_at(&self, sample: &[u64], shards: usize, seed: u64) -> PartitionerChoice {
        let hash = Sharder::new(ShardPartitioner::Hash, shards, seed);
        let hash_load = max_load_fraction(sample, &hash);
        let fitted = Sharder::fitted_range(fit_boundaries(sample, shards))
            .expect("fit_boundaries yields ascending cuts");
        let range_load = max_load_fraction(sample, &fitted);
        if range_load <= self.cfg.range_load_factor * hash_load {
            PartitionerChoice {
                partitioner: ShardPartitioner::Range,
                load: range_load,
                hash_load,
                range_load,
                sharder: fitted,
            }
        } else {
            PartitionerChoice {
                partitioner: ShardPartitioner::Hash,
                load: hash_load,
                hash_load,
                range_load,
                sharder: hash,
            }
        }
    }

    /// The degenerate one-shard plan (empty input, single key).
    fn trivial_plan(&self, stats: cheetah_core::plan::KeyStats, seed: u64, why: &str) -> ShardPlan {
        let worker_seconds = stats.rows as f64 / self.cfg.ingest.arrival_rate.max(1.0);
        let merge_seconds =
            self.cfg.ingest.planning_latency(1, stats.rows.min(stats.distinct_estimate as u64))
                + self.cfg.per_shard_overhead_seconds;
        ShardPlan {
            sharder: Sharder::new(ShardPartitioner::Hash, 1, seed),
            report: PlanReport {
                rows: stats.rows,
                sample_len: stats.sample.len(),
                distinct_estimate: stats.distinct_estimate,
                top_key_mass: stats.top_key_mass,
                shards: 1,
                partitioner: ShardPartitioner::Hash,
                hash_sample_load: 1.0,
                range_sample_load: 1.0,
                curve: vec![ShardCostPoint { shards: 1, worker_seconds, merge_seconds }],
                reason: format!("chose 1 shard: {why}"),
            },
        }
    }
}

// ---------------------------------------------------------------------
// The online path chooser: a tiny deterministic UCB bandit over
// (execution path × pruning backend), tuned from observed breakdowns.
// ---------------------------------------------------------------------

/// Which execution twin a run goes through. The chooser scores these
/// against each other; the caller maps the choice onto the concrete entry
/// points (`run_cheetah_presplit` on the worker pool for the barrier twin,
/// `run_cheetah_streamed_resident` for the streamed one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Pre-split shards on the shared worker pool, barrier merge.
    BarrierPooled,
    /// Resident stream units with the overlapped merge plane.
    StreamedResident,
}

impl ExecPath {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecPath::BarrierPooled => "pooled",
            ExecPath::StreamedResident => "streamed",
        }
    }
}

/// One pullable arm: an execution path on a pruning backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChooserArm {
    /// The execution twin.
    pub path: ExecPath,
    /// The pruning engine.
    pub backend: cheetah_net::ExecBackend,
}

impl ChooserArm {
    /// `"pooled/compiled"`-style label for reports and assertions.
    pub fn label(self) -> String {
        format!("{}/{}", self.path.label(), self.backend.label())
    }
}

/// Per-arm cost accounting, backed by a telemetry histogram so every
/// observation the bandit makes is *also* an exported metric
/// (`…<arm>.cost_seconds` in the owning registry's snapshot).
///
/// Histograms keep an exact `sum`/`count` beside their buckets, so the
/// mean the bandit decides on is bit-identical to the private
/// `total_cost / plays` bookkeeping this replaced.
#[derive(Debug, Clone)]
struct ArmState {
    arm: ChooserArm,
    cost: cheetah_telemetry::Histogram,
}

impl ArmState {
    fn plays(&self) -> u64 {
        self.cost.count()
    }

    fn mean(&self) -> f64 {
        self.cost.mean().unwrap_or(0.0)
    }
}

/// A deterministic UCB1 bandit over the four (path × backend) arms,
/// learning online which execution strategy completes this query cheapest
/// — the Cuttlefish idea, shrunk to the two axes this engine actually
/// exposes. Costs are modelled completion seconds from observed
/// [`cheetah_net::ExecBreakdown`]s, so the chooser weighs real measured work plus the
/// byte-model transfer, exactly what the planner prices.
///
/// Determinism: arms are played in declaration order until each has one
/// observation, then the arm minimizing `mean − c·s·√(2·ln N / n)` (the
/// lower confidence bound — we minimize cost) is chosen; ties break to
/// the earliest arm. No RNG anywhere, so repeated runs reproduce.
///
/// `s` is the cheapest observed mean: textbook UCB1 assumes rewards in
/// `[0, 1]`, but completion costs are whatever the workload makes them —
/// seconds on paper-scale streams, microseconds on a smoke table. An
/// *absolute* bonus would drown sub-millisecond cost gaps and degenerate
/// into round-robin, so the bonus is rescaled by the observed cost floor,
/// making the pick sequence invariant to the unit of cost.
///
/// The chooser also remembers the latest measured `entries_to_master`;
/// [`PathChooser::informed`] feeds it into a [`PlannerConfig`] as the
/// [`survivor_hint`](PlannerConfig::survivor_hint), re-pricing the merge
/// from reality instead of the distinct-estimate proxy.
#[derive(Debug, Clone)]
pub struct PathChooser {
    arms: [ArmState; 4],
    link_gbps: f64,
    explore: f64,
    measured_survivors: Option<u64>,
}

impl PathChooser {
    /// The four arms, in deterministic play order.
    pub const ARMS: [ChooserArm; 4] = [
        ChooserArm {
            path: ExecPath::BarrierPooled,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm { path: ExecPath::BarrierPooled, backend: cheetah_net::ExecBackend::Compiled },
        ChooserArm {
            path: ExecPath::StreamedResident,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm {
            path: ExecPath::StreamedResident,
            backend: cheetah_net::ExecBackend::Compiled,
        },
    ];

    /// A chooser costing completions over `link_gbps` links, recording
    /// arm costs into a private registry.
    pub fn new(link_gbps: f64) -> Self {
        Self::with_registry(link_gbps, &cheetah_telemetry::Registry::new(), "chooser")
    }

    /// A chooser whose arm-cost histograms live in `registry` under
    /// `<scope>.<arm>.cost_seconds` — the serving plane passes its
    /// session registry here so every bandit observation shows up in
    /// telemetry snapshots.
    pub fn with_registry(
        link_gbps: f64,
        registry: &cheetah_telemetry::Registry,
        scope: &str,
    ) -> Self {
        Self {
            arms: Self::ARMS.map(|arm| ArmState {
                arm,
                cost: registry.histogram(&format!("{scope}.{}.cost_seconds", arm.label())),
            }),
            link_gbps,
            // Softer than the textbook √2: with the bonus rescaled to
            // the observed cost floor, √2 would spend tens of pulls per
            // suboptimal arm before exploiting — too slow for the dozens
            // of repeats a query realistically gets. 0.5 still re-probes
            // arms whose gap is within ~½ of the floor.
            explore: 0.5,
            measured_survivors: None,
        }
    }

    /// Total observations across all arms.
    pub fn plays(&self) -> u64 {
        self.arms.iter().map(ArmState::plays).sum()
    }

    /// The arm to play next: each arm once, then lowest confidence bound.
    pub fn next(&self) -> ChooserArm {
        if let Some(unplayed) = self.arms.iter().find(|a| a.plays() == 0) {
            return unplayed.arm;
        }
        let n = self.plays() as f64;
        // The cost floor every bonus is expressed in units of — all four
        // arms have been played when we reach here.
        let scale = self
            .arms
            .iter()
            .map(ArmState::mean)
            .fold(f64::INFINITY, f64::min)
            .max(f64::MIN_POSITIVE);
        self.arms
            .iter()
            .map(|a| {
                (a.arm, a.mean() - self.explore * scale * (2.0 * n.ln() / a.plays() as f64).sqrt())
            })
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .map(|(arm, _)| arm)
            .expect("four arms")
    }

    /// How many times `arm` has been played.
    pub fn plays_of(&self, arm: ChooserArm) -> u64 {
        self.arms.iter().find(|a| a.arm == arm).map_or(0, ArmState::plays)
    }

    /// Record what one run of `arm` cost, and remember its measured
    /// survivor volume for [`PathChooser::informed`].
    pub fn observe(&mut self, arm: ChooserArm, breakdown: &cheetah_net::ExecBreakdown) {
        let cost = breakdown.completion_seconds(self.link_gbps);
        let state =
            self.arms.iter_mut().find(|a| a.arm == arm).expect("observed arm is one of the four");
        state.cost.observe(cost);
        self.measured_survivors = Some(breakdown.entries_to_master);
    }

    /// The arm with the lowest observed mean cost (exploitation only —
    /// what the bandit has converged to). Unplayed arms are ignored;
    /// before any observation, the first arm.
    pub fn best(&self) -> ChooserArm {
        self.arms
            .iter()
            .filter(|a| a.plays() > 0)
            .min_by(|a, b| a.mean().partial_cmp(&b.mean()).expect("finite costs"))
            .map(|a| a.arm)
            .unwrap_or(Self::ARMS[0])
    }

    /// Observed mean completion cost of `arm`, if it has been played.
    pub fn mean_cost(&self, arm: ChooserArm) -> Option<f64> {
        self.arms.iter().find(|a| a.arm == arm && a.plays() > 0).map(ArmState::mean)
    }

    /// Total cost paid across every observation — the numerator of a
    /// cumulative-regret comparison against any fixed strategy.
    pub fn cumulative_cost(&self) -> f64 {
        self.arms.iter().map(|a| a.cost.sum()).sum()
    }

    /// The latest measured `entries_to_master`, once any run was observed.
    pub fn measured_survivors(&self) -> Option<u64> {
        self.measured_survivors
    }

    /// Feed the measured survivor volume back into a planner config: the
    /// returned config prices the merge from the observed
    /// `entries_to_master` instead of the distinct-estimate proxy.
    pub fn informed(&self, mut cfg: PlannerConfig) -> PlannerConfig {
        if let Some(measured) = self.measured_survivors {
            cfg.survivor_hint = Some(measured);
        }
        cfg
    }
}

struct PartitionerChoice {
    partitioner: ShardPartitioner,
    load: f64,
    hash_load: f64,
    range_load: f64,
    sharder: Sharder,
}

// ---------------------------------------------------------------------
// Routing-key extraction: the one home for "which key does this row
// route by" (the sharded layer and the planner both consume it).
// ---------------------------------------------------------------------

/// Where a stream's routing keys come from.
///
/// Keyed queries route by their group/join key so each key lives on one
/// shard (exact key-union and co-partitioned-join merges); TOP N routes by
/// the order column (order-preserving encoding, so range sharding splits
/// the value space); scans and skylines route by a row-id hash (pure load
/// balance — their merges are routing-agnostic).
enum RouteBy {
    /// `mix64(global_row ^ seed)`.
    RowId,
    /// The column's `encode_key`: ints order-preserving, strings
    /// fingerprinted.
    Key(usize),
    /// An int column, order-preserving.
    Order(usize),
}

impl RouteBy {
    fn of(q: &DbQuery, stream: usize) -> RouteBy {
        match q {
            DbQuery::FilterCount { .. } | DbQuery::Skyline { .. } => RouteBy::RowId,
            DbQuery::Distinct { col } => RouteBy::Key(*col),
            DbQuery::TopN { order_col, .. } => RouteBy::Order(*order_col),
            DbQuery::GroupByMax { key_col, .. } | DbQuery::HavingSum { key_col, .. } => {
                RouteBy::Key(*key_col)
            }
            DbQuery::Join { left_key, right_key } => {
                RouteBy::Key(if stream == 0 { *left_key } else { *right_key })
            }
        }
    }
}

/// Every row's routing key for stream `stream`, in row order.
///
/// Keys are derived a column at a time: string keys hash in place, so no
/// row pays for a cloned [`Value`](crate::Value). Each key equals the
/// operators' encoding of the row's key cell.
///
/// Public because every sharded execution path — the barrier twins here
/// and in [`crate::sharded`], and the streamed runtime in
/// `cheetah-runtime` — must route by the *same* keys for the per-operator
/// merge semantics to hold.
pub fn routing_keys(q: &DbQuery, stream: usize, table: &Table, seed: u64) -> Vec<u64> {
    let by = RouteBy::of(q, stream);
    let hash = HashFn::from_seed(seed);
    let mut keys = Vec::with_capacity(table.rows());
    let mut global_row = 0u64;
    for p in table.partitions() {
        let rows = p.rows() as u64;
        match by {
            RouteBy::RowId => {
                keys.extend((global_row..global_row + rows).map(|g| mix64(g ^ seed)));
            }
            RouteBy::Key(c) => match p.column(c) {
                Column::Int(v) => keys.extend(v.iter().map(|&x| encode_ordered_i64(x))),
                Column::Str(v) => {
                    keys.extend(v.iter().map(|s| encode_str_key(&hash, s)));
                }
            },
            RouteBy::Order(c) => {
                let v = p.column(c).as_int().expect("int order col");
                keys.extend(v.iter().map(|&x| encode_ordered_i64(x)));
            }
        }
        global_row += rows;
    }
    keys
}

/// The sharder of a *hand-picked* [`ShardSpec`]. Hash scatters over the
/// seed; Range fits its equal spans to the *observed* key bounds across
/// **both** streams — jointly, because JOIN co-partitioning needs one set
/// of boundaries for the two sides — so real key domains (string
/// fingerprints fill only the lower 2⁶³; encoded small ints cluster
/// around 2⁶³) split into populated spans instead of piling onto one
/// shard. (The planner's *fitted* range plan goes further and cuts at the
/// sampled quantiles.) Shared with the streamed runtime's fixed-layout
/// mode, hence public.
pub fn fixed_sharder(spec: &ShardSpec, seed: u64, keys: &[&[u64]]) -> Sharder {
    match spec.partitioner {
        ShardPartitioner::Hash => Sharder::new(ShardPartitioner::Hash, spec.shards, seed),
        ShardPartitioner::Range => {
            let mut bounds: Option<(u64, u64)> = None;
            for &k in keys.iter().flat_map(|s| s.iter()) {
                bounds = Some(match bounds {
                    None => (k, k),
                    Some((lo, hi)) => (lo.min(k), hi.max(k)),
                });
            }
            match bounds {
                Some((lo, hi)) => Sharder::range_over(lo, hi, spec.shards),
                // No rows anywhere: any total routing works.
                None => Sharder::new(ShardPartitioner::Range, spec.shards, seed),
            }
        }
    }
}

impl Cluster {
    /// Execute `q` sharded under a *planner-chosen* layout: sample the
    /// routing keys, pick the shard count from the ingest-model fan-in
    /// curve and the partitioner from the sampled skew, then run exactly
    /// like [`run_cheetah_sharded`](Cluster::run_cheetah_sharded). The
    /// returned run carries the [`ShardPlan`] (and
    /// `breakdown.plan = Some(PlanDecision::Planned(..))`).
    ///
    /// Output equals the baseline's and the unsharded run's for every
    /// query shape — the planner changes *where* rows go, never *what*
    /// the query answers.
    ///
    /// **Deprecated**: prefer the serving plane's front door — an
    /// un-pinned `cheetah_serve::QueryRequest` runs planner-chosen
    /// layouts through the session's plan cache, so repeat shapes skip
    /// the sampling pass entirely. This entry point stays as the shim
    /// the serving contract gates verify bit-identity against.
    #[doc(hidden)]
    pub fn run_cheetah_planned(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
        planner: &ShardPlanner,
    ) -> cheetah_core::Result<ShardedRun> {
        let seed = self.tuning.seed;
        let left_keys = routing_keys(q, 0, left, seed);
        let right_keys = right.map(|r| routing_keys(q, 1, r, seed));
        let slices: Vec<&[u64]> =
            std::iter::once(left_keys.as_slice()).chain(right_keys.as_deref()).collect();
        let plan = planner.plan_from_keys(&slices, seed);
        let sharder = plan.sharder.clone();
        let decision = PlanDecision::Planned(plan.report.partitioner);
        self.run_cheetah_routed(
            q,
            left,
            right,
            &left_keys,
            right_keys.as_deref(),
            &sharder,
            &planner.cfg.ingest,
            decision,
            Some(plan),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecBreakdown;
    use crate::testutil::test_table;

    /// The per-row routing key derivation `routing_keys` replaced: one
    /// cloned [`crate::Value`] per row, then `encode_key`.
    fn route_key_oracle(
        q: &DbQuery,
        seed: u64,
        stream: usize,
        part: &crate::table::Partition,
        row: usize,
        global_row: u64,
    ) -> u64 {
        use crate::operators::encode_key;
        match q {
            DbQuery::FilterCount { .. } | DbQuery::Skyline { .. } => mix64(global_row ^ seed),
            DbQuery::Distinct { col } => encode_key(seed, &part.column(*col).get(row)),
            DbQuery::TopN { order_col, .. } => {
                encode_ordered_i64(part.column(*order_col).as_int().expect("int order col")[row])
            }
            DbQuery::GroupByMax { key_col, .. } | DbQuery::HavingSum { key_col, .. } => {
                encode_key(seed, &part.column(*key_col).get(row))
            }
            DbQuery::Join { left_key, right_key } => {
                let col = if stream == 0 { *left_key } else { *right_key };
                encode_key(seed, &part.column(col).get(row))
            }
        }
    }

    fn oracle_keys(q: &DbQuery, stream: usize, table: &Table, seed: u64) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut global_row = 0u64;
        for p in table.partitions() {
            for r in 0..p.rows() {
                keys.push(route_key_oracle(q, seed, stream, p, r, global_row));
                global_row += 1;
            }
        }
        keys
    }

    #[test]
    fn routing_keys_equal_the_per_row_oracle() {
        use crate::expr::{DbPredicate, IntCmp};
        // Columns: 0 Str, 1 Int, 2 Int. Seven partitions, the last one
        // shorter, so global row ids cross partition boundaries.
        let t = test_table(2_500, 7);
        let single = test_table(300, 1);
        assert!(t.partitions().len() > 1);
        let queries = [
            DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 3 } },
            DbQuery::Distinct { col: 0 },
            DbQuery::Distinct { col: 2 },
            DbQuery::Skyline { cols: vec![1, 2] },
            DbQuery::TopN { order_col: 1, n: 5 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::GroupByMax { key_col: 2, val_col: 1 },
            DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10 },
            DbQuery::HavingSum { key_col: 1, val_col: 2, threshold: 10 },
            DbQuery::Join { left_key: 0, right_key: 0 },
            DbQuery::Join { left_key: 1, right_key: 2 },
        ];
        for seed in [0u64, 7, 0xC43E_7A5E_ED00_0001] {
            for q in &queries {
                let streams = if q.is_binary() { 2 } else { 1 };
                for stream in 0..streams {
                    for table in [&t, &single] {
                        assert_eq!(
                            routing_keys(q, stream, table, seed),
                            oracle_keys(q, stream, table, seed),
                            "{q:?} stream {stream} seed {seed:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plans_are_deterministic_in_seed_and_data() {
        let t = test_table(3_000, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let planner = ShardPlanner::default();
        let a = planner.plan(&q, &t, None, 0xC43E7A);
        let b = planner.plan(&q, &t, None, 0xC43E7A);
        assert_eq!(a, b, "same seed + same tables must give the identical plan");
        let c = planner.plan(&q, &t, None, 0xC43E7A ^ 1);
        assert_eq!(c.report.rows, a.report.rows, "size estimates are seed-independent");
    }

    #[test]
    fn empty_table_plans_one_shard() {
        let t = crate::table::TableBuilder::new(
            "empty",
            vec![("agent".into(), crate::value::DataType::Str)],
            8,
        )
        .build();
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &t, None, 7);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.report.rows, 0);
        assert!(plan.report.reason.contains("empty"), "{}", plan.report.reason);
    }

    #[test]
    fn table_smaller_than_the_sample_is_sampled_exactly() {
        let t = test_table(50, 1);
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &t, None, 7);
        assert_eq!(plan.report.rows, 50);
        assert_eq!(plan.report.sample_len, 50, "reservoir must hold every key");
    }

    #[test]
    fn spread_keys_pick_more_than_one_shard_and_a_range_fit() {
        // TOP N routes by the (spread) order column; the fitted quantile
        // plan balances it, so the planner keeps range and fans out.
        let t = test_table(20_000, 4);
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::TopN { order_col: 1, n: 10 }, &t, None, 3);
        assert!(plan.shards() > 1, "{}", plan.report.reason);
        assert!(
            plan.report.range_sample_load
                <= planner.cfg.range_load_factor * plan.report.hash_sample_load,
            "kept range must respect the load bound: {:?}",
            plan.report
        );
        assert_eq!(plan.report.curve.len(), planner.cfg.max_shards);
    }

    #[test]
    fn calibration_measures_real_constants_and_still_plans_correctly() {
        let cluster = Cluster::default();
        let t = test_table(3_000, 3);
        let cfg = PlannerConfig::default().calibrate(&cluster, &Tables::unary(&t));
        let cal = cfg.calibration.expect("probe ran");
        assert_eq!(cal.probe_rows, 512);
        assert!(cal.measured_arrival_rate > 0.0);
        assert!(cal.measured_overhead_seconds > 0.0);
        assert!(
            (cfg.per_shard_overhead_seconds - cal.measured_overhead_seconds.max(1e-9)).abs()
                < 1e-12
        );
        assert_eq!(cfg.ingest.arrival_rate, cal.measured_arrival_rate.max(1.0));
        // A calibrated planner keeps the correctness contract.
        let planner = ShardPlanner::new(cfg);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let planned = cluster.run_cheetah_planned(&q, &t, None, &planner).unwrap();
        assert_eq!(planned.output, cluster.run_baseline(&q, &t, None).output);
    }

    #[test]
    fn calibration_of_an_empty_table_is_a_no_op() {
        let cluster = Cluster::default();
        let t = crate::table::TableBuilder::new(
            "empty",
            vec![("agent".into(), crate::value::DataType::Str)],
            8,
        )
        .build();
        let cfg = PlannerConfig::default().calibrate(&cluster, &Tables::unary(&t));
        assert_eq!(cfg, PlannerConfig::default());
        assert!(cfg.calibration.is_none());
    }

    /// High-fanout join: few distinct keys, every row matches. Survivors
    /// are matching *rows* from both streams; the distinct-key proxy is
    /// off by orders of magnitude.
    fn high_fanout_tables() -> (Table, Table) {
        let fields = vec![
            ("k".into(), crate::value::DataType::Int),
            ("v".into(), crate::value::DataType::Int),
        ];
        let mut l = crate::table::TableBuilder::new("l", fields.clone(), 1000);
        let mut r = crate::table::TableBuilder::new("r", fields, 1000);
        for i in 0..3000i64 {
            l.push_row(vec![crate::value::Value::Int(i % 8), crate::value::Value::Int(i)]);
            r.push_row(vec![crate::value::Value::Int(i % 8), crate::value::Value::Int(-i)]);
        }
        (l.build(), r.build())
    }

    #[test]
    fn measured_survivors_reprice_the_high_fanout_join_merge() {
        // The satellite-1 regression: without feedback the planner prices
        // the JOIN merge from ~8 distinct keys; the run actually delivers
        // thousands of matching rows to the master. Learning the measured
        // `entries_to_master` must close that >2× under-pricing.
        let cluster = Cluster::default();
        let (l, r) = high_fanout_tables();
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let measured = cluster.run_cheetah(&q, &l, Some(&r)).unwrap().breakdown.entries_to_master;
        assert!(measured > 1_000, "high-fanout adversary must flood the master: {measured}");

        let seed = cluster.tuning.seed;
        let blind = ShardPlanner::default();
        let blind_plan = blind.plan(&q, &l, Some(&r), seed);
        let mut chooser = PathChooser::new(10.0);
        chooser.observe(
            PathChooser::ARMS[0],
            &ExecBreakdown { entries_to_master: measured, ..ExecBreakdown::default() },
        );
        let informed = ShardPlanner::new(chooser.informed(PlannerConfig::default()));
        let informed_plan = informed.plan(&q, &l, Some(&r), seed);

        // Compare the merge model at every candidate shard count, with the
        // fixed per-shard overhead subtracted so only the survivor term
        // speaks. The truth is the ingest price of the measured volume.
        let ingest = MasterIngestModel::default_rack();
        let overhead = |n: usize| n as f64 * blind.cfg.per_shard_overhead_seconds;
        for (b, i) in blind_plan.report.curve.iter().zip(&informed_plan.report.curve) {
            assert_eq!(b.shards, i.shards);
            let truth = ingest.planning_latency(b.shards, measured);
            let blind_price = b.merge_seconds - overhead(b.shards);
            let informed_price = i.merge_seconds - overhead(i.shards);
            assert!(
                truth > 2.0 * blind_price,
                "adversary no longer exhibits the undershoot at {} shards: \
                 truth {truth}, blind {blind_price}",
                b.shards
            );
            assert!(
                truth <= 2.0 * informed_price,
                "informed planner still under-prices the merge by >2× at {} shards: \
                 truth {truth}, informed {informed_price}",
                b.shards
            );
        }
    }

    #[test]
    fn chooser_plays_every_arm_once_then_converges_to_the_cheapest() {
        let mut chooser = PathChooser::new(10.0);
        // Deterministic cost per arm: streamed/compiled is the cheapest.
        let cost_of = |arm: ChooserArm| match (arm.path, arm.backend) {
            (ExecPath::BarrierPooled, crate::engine::ExecBackend::Interpreted) => 4.0,
            (ExecPath::BarrierPooled, crate::engine::ExecBackend::Compiled) => 2.0,
            (ExecPath::StreamedResident, crate::engine::ExecBackend::Interpreted) => 3.0,
            (ExecPath::StreamedResident, crate::engine::ExecBackend::Compiled) => 1.0,
        };
        let mut seen = Vec::new();
        for _ in 0..40 {
            let arm = chooser.next();
            seen.push(arm);
            chooser.observe(
                arm,
                &ExecBreakdown { master_seconds: cost_of(arm), ..ExecBreakdown::default() },
            );
        }
        // Warm-up: the four arms in declaration order.
        assert_eq!(&seen[..4], &PathChooser::ARMS);
        let winner = ChooserArm {
            path: ExecPath::StreamedResident,
            backend: crate::engine::ExecBackend::Compiled,
        };
        assert_eq!(chooser.best(), winner);
        // Converged: the cheapest arm dominates the post-warm-up plays.
        let wins = seen[4..].iter().filter(|a| **a == winner).count();
        assert!(wins * 2 > seen.len() - 4, "winner played only {wins}/{}", seen.len() - 4);
        // And the bandit's average cost beats the worst fixed strategy.
        let avg = chooser.cumulative_cost() / chooser.plays() as f64;
        assert!(avg < 4.0, "bandit average {avg} not better than always-worst");
    }

    #[test]
    fn chooser_is_deterministic() {
        let run = || {
            let mut c = PathChooser::new(10.0);
            let mut picked = Vec::new();
            for i in 0..20u64 {
                let arm = c.next();
                picked.push(arm.label());
                c.observe(
                    arm,
                    &ExecBreakdown {
                        master_seconds: (i % 5) as f64
                            + if arm.backend == crate::engine::ExecBackend::Compiled {
                                0.0
                            } else {
                                1.0
                            },
                        ..ExecBreakdown::default()
                    },
                );
            }
            picked
        };
        assert_eq!(run(), run(), "no RNG: identical histories must replay identically");
    }

    #[test]
    fn planned_run_matches_fixed_sharded_output() {
        let cluster = Cluster::default();
        let t = test_table(2_000, 3);
        let q = DbQuery::Distinct { col: 0 };
        let fixed = cluster
            .run_cheetah_sharded(&q, &t, None, &ShardSpec::new(4, ShardPartitioner::Hash))
            .unwrap();
        let planned = cluster.run_cheetah_planned(&q, &t, None, &ShardPlanner::default()).unwrap();
        assert_eq!(fixed.output, planned.output);
        let plan = planned.plan.as_ref().expect("planned run records its plan");
        assert_eq!(planned.breakdown.shards as usize, plan.shards());
        assert!(planned.breakdown.plan.expect("decision recorded").is_planned());
        assert!(fixed.plan.is_none(), "fixed runs carry no plan");
    }
}
