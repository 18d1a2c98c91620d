//! Sample-driven shard planning: the estimators behind the adaptive
//! shard planner.
//!
//! Cheetah's pruning win is bounded by the *slowest* shard: a fixed range
//! partitioner degenerates under key skew (one hot shard serializes the
//! whole run), and a fixed shard count either wastes workers on small
//! inputs or starves large ones. Cuttlefish-style lightweight runtime
//! sampling is enough to pick the physical strategy adaptively — this
//! module holds the sampling/estimation machinery, deliberately free of
//! any cost model (the ingest-model cost query lives in `cheetah-net`,
//! and the planner that combines both lives in `cheetah-db::planner`,
//! because this crate sits below the link models):
//!
//! * [`Reservoir`] — seeded Algorithm-R reservoir sampling over a routing
//!   key stream (uniform without knowing the stream length up front);
//! * [`DistinctSketch`] — a KMV (k-minimum-values) distinct-count sketch
//!   over the *whole* stream, not just the sample;
//! * [`KeySampler`] / [`KeyStats`] — one pass over the routing keys
//!   producing the sampled quantiles, the distinct estimate, and the
//!   top-key mass (the skew signal);
//! * [`fit_boundaries`] — fitted range cut points from the sampled
//!   quantiles, consumed by [`Sharder::fitted_range`];
//! * [`max_load_fraction`] — evaluate a candidate sharder's worst shard
//!   load on the sample (the balance signal the hash-vs-range choice and
//!   the planner contract's 2× bound are stated over);
//! * [`ShardPlan`] / [`PlanReport`] / [`PlanDecision`] — the concrete
//!   plan a planner emits, with an explicit record of *why*.
//!
//! Everything is deterministic in the seed: the same keys and the same
//! seed always produce the same sample, the same estimates, and therefore
//! the same plan — the determinism the planner regression tests pin down.

use crate::shard::{ShardPartitioner, Sharder};
use cheetah_switch::hash::mix64;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Seeded Algorithm-R reservoir sampler over a `u64` key stream.
///
/// Every offered key is kept with probability `capacity / seen` without
/// knowing the stream length in advance; the replacement choices come from
/// a seeded `mix64` chain, so the sample is a pure function of
/// `(capacity, seed, key order)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    state: u64,
    sample: Vec<u64>,
}

impl Reservoir {
    /// A reservoir holding at most `capacity` keys.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "need a non-empty reservoir");
        Self { capacity, seen: 0, state: seed ^ RESERVOIR_SALT, sample: Vec::new() }
    }

    /// Offer one key from the stream.
    pub fn offer(&mut self, key: u64) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(key);
            return;
        }
        self.state = mix64(self.state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let j = (self.state % self.seen) as usize;
        if j < self.capacity {
            self.sample[j] = key;
        }
    }

    /// Keys offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample (insertion order, unsorted).
    pub fn sample(&self) -> &[u64] {
        &self.sample
    }
}

const RESERVOIR_SALT: u64 = 0x5EED_0F00;

/// KMV (k-minimum-values) distinct-count sketch.
///
/// Keeps the `k` smallest `mix64` hashes of the keys it sees; duplicates
/// hash identically, so the set's density estimates the distinct count:
/// with the `k`-th smallest hash at fraction `u` of the hash space, the
/// stream carried about `(k - 1) / u` distinct keys. Exact below `k`
/// distinct keys.
///
/// [`offer`](DistinctSketch::offer) is O(1) for almost every key. Once
/// `k` hashes are held, a hash at or above the largest one cannot enter
/// the set and is rejected with one comparison. In front of the set sits
/// a direct-mapped filter of hashes already inserted, so a repeated key
/// skips the ordered-set lookup. The filter is exact: a hash it names was
/// inserted, and if that hash has since been evicted, it lies above the
/// current maximum, which the first rule rejects anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    k: usize,
    mins: BTreeSet<u64>,
    /// Largest hash in `mins` (meaningful once `mins` is non-empty).
    max: u64,
    /// `seen[h % SEEN_SLOTS]` holds the last hash inserted into that slot;
    /// [`SEEN_EMPTY`] marks a slot never written.
    seen: Box<[u64]>,
}

/// Slots of the sketch's already-inserted filter (a power of two).
const SEEN_SLOTS: usize = 512;
/// Marks an unwritten filter slot. A key hashing to this value bypasses
/// the filter, so the marker never hides a real hash.
const SEEN_EMPTY: u64 = 0;
/// Salt between the routing key and the sketch's hash.
const SKETCH_SALT: u64 = 0xD15_71C7;

impl DistinctSketch {
    /// A sketch keeping the `k` minimum hash values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "KMV needs k >= 2");
        Self { k, mins: BTreeSet::new(), max: 0, seen: vec![SEEN_EMPTY; SEEN_SLOTS].into() }
    }

    /// Observe one key.
    pub fn offer(&mut self, key: u64) {
        let h = mix64(key ^ SKETCH_SALT);
        if self.mins.len() >= self.k && h >= self.max {
            return;
        }
        let slot = &mut self.seen[h as usize % SEEN_SLOTS];
        if *slot == h && h != SEEN_EMPTY {
            return;
        }
        *slot = h;
        if !self.mins.insert(h) {
            return;
        }
        if self.mins.len() > self.k {
            self.mins.pop_last();
            self.max = *self.mins.last().expect("k >= 2 entries");
        } else {
            self.max = self.max.max(h);
        }
    }

    /// Estimated distinct count (exact while fewer than `k` distinct keys
    /// have been seen).
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let u = (self.max as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / u
    }
}

/// One-pass sampler over a routing-key stream: reservoir + distinct
/// sketch + exact row count, finished into [`KeyStats`].
#[derive(Debug, Clone)]
pub struct KeySampler {
    reservoir: Reservoir,
    sketch: DistinctSketch,
}

/// Default distinct-sketch size — enough for a ±10 % estimate, tiny next
/// to any real table.
pub const DEFAULT_SKETCH_K: usize = 256;

impl KeySampler {
    /// A sampler with a `sample_size` reservoir and the default sketch.
    pub fn new(sample_size: usize, seed: u64) -> Self {
        Self {
            reservoir: Reservoir::new(sample_size, seed),
            sketch: DistinctSketch::new(DEFAULT_SKETCH_K),
        }
    }

    /// Observe one routing key.
    pub fn offer(&mut self, key: u64) {
        self.reservoir.offer(key);
        self.sketch.offer(key);
    }

    /// Finish the pass: sorted sample + estimates.
    pub fn finish(self) -> KeyStats {
        let rows = self.reservoir.seen();
        let mut sample = self.reservoir.sample.clone();
        sample.sort_unstable();
        let top_key_mass = longest_equal_run(&sample) as f64 / sample.len().max(1) as f64;
        KeyStats {
            rows,
            distinct_estimate: self.sketch.estimate().min(rows as f64),
            top_key_mass,
            sample,
        }
    }
}

/// What one sampling pass learned about the routing keys.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyStats {
    /// Rows (keys) the stream carried, exactly.
    pub rows: u64,
    /// Estimated distinct routing keys (KMV; exact for small domains).
    pub distinct_estimate: f64,
    /// Fraction of the sample occupied by its most frequent key — the
    /// skew signal. `1.0` means every sampled key is equal.
    pub top_key_mass: f64,
    /// The sorted reservoir sample.
    pub sample: Vec<u64>,
}

impl KeyStats {
    /// Do all sampled keys collapse to one value? (No partitioner can
    /// split a single key: key-aligned routing pins it to one shard.)
    pub fn all_keys_equal(&self) -> bool {
        !self.sample.is_empty() && self.sample.first() == self.sample.last()
    }
}

fn longest_equal_run(sorted: &[u64]) -> usize {
    let mut best = 0;
    let mut run = 0;
    let mut prev = None;
    for &k in sorted {
        if Some(k) == prev {
            run += 1;
        } else {
            run = 1;
            prev = Some(k);
        }
        best = best.max(run);
    }
    best
}

/// Fit `shards - 1` range cut points to the sampled quantiles: boundary
/// `i` is the sample's `(i + 1) / shards` quantile, so each span holds
/// roughly the same *sampled mass* (unlike equal key-space spans, which
/// degenerate whenever the keys cluster). Feed the result to
/// [`Sharder::fitted_range`]. The cut points are non-decreasing; a hot
/// key wider than a span repeats its value, leaving some spans empty —
/// which the load evaluation then sees and the planner penalizes.
pub fn fit_boundaries(sorted_sample: &[u64], shards: usize) -> Vec<u64> {
    assert!(shards > 0, "need at least one shard");
    if sorted_sample.is_empty() || shards == 1 {
        return Vec::new();
    }
    let m = sorted_sample.len();
    (1..shards).map(|i| sorted_sample[(i * m / shards).min(m - 1)]).collect()
}

/// The worst shard's share of `keys` under `sharder` — `1.0 / shards` is
/// perfectly balanced, `1.0` is fully serialized. Empty input is balanced
/// by convention.
pub fn max_load_fraction(keys: &[u64], sharder: &Sharder) -> f64 {
    if keys.is_empty() {
        return 1.0 / sharder.shards() as f64;
    }
    let mut counts = vec![0u64; sharder.shards()];
    for &k in keys {
        counts[sharder.shard_of(k)] += 1;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / keys.len() as f64
}

/// How a run's sharding layout was decided — recorded in
/// `ExecBreakdown` so every measurement says whether a planner or a
/// hand-picked spec chose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanDecision {
    /// A hand-picked `ShardSpec` (or the unsharded path's implicit one).
    Fixed(ShardPartitioner),
    /// Chosen by a sample-driven shard planner.
    Planned(ShardPartitioner),
}

impl PlanDecision {
    /// The routing family the decision landed on.
    pub fn partitioner(&self) -> ShardPartitioner {
        match self {
            PlanDecision::Fixed(p) | PlanDecision::Planned(p) => *p,
        }
    }

    /// Was this layout planner-chosen?
    pub fn is_planned(&self) -> bool {
        matches!(self, PlanDecision::Planned(_))
    }
}

/// One candidate shard count's modelled cost, kept in the report so the
/// chosen point is auditable against its neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCostPoint {
    /// Candidate worker count.
    pub shards: usize,
    /// Modelled worker (serialize) seconds: the hottest shard's share of
    /// the rows at the CWorker send rate.
    pub worker_seconds: f64,
    /// Modelled master-side seconds: survivor-stream fan-in ingest plus
    /// per-shard merge overhead.
    pub merge_seconds: f64,
}

impl ShardCostPoint {
    /// Modelled completion at this candidate point.
    pub fn total(&self) -> f64 {
        self.worker_seconds + self.merge_seconds
    }
}

/// Why a plan looks the way it does — every number the decision rules
/// read, so tests (and humans) can audit the choice instead of trusting
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Rows the sampler saw (both streams of a binary query).
    pub rows: u64,
    /// Reservoir sample size actually held.
    pub sample_len: usize,
    /// KMV distinct-key estimate.
    pub distinct_estimate: f64,
    /// Hottest sampled key's share of the sample.
    pub top_key_mass: f64,
    /// Chosen worker count.
    pub shards: usize,
    /// Chosen routing family.
    pub partitioner: ShardPartitioner,
    /// Max shard load fraction of a *hash* sharder on the sample at the
    /// chosen shard count.
    pub hash_sample_load: f64,
    /// Max shard load fraction of the *fitted range* sharder on the same
    /// sample at the chosen shard count.
    pub range_sample_load: f64,
    /// The modelled cost curve over every candidate shard count.
    pub curve: Vec<ShardCostPoint>,
    /// Human-readable explanation of the choice.
    pub reason: String,
}

/// A concrete, executable shard plan: the routing function plus the
/// report explaining it. Emitted by `cheetah_db::planner::ShardPlanner`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The planned `key → shard` routing (hash, or quantile-fitted range).
    pub sharder: Sharder,
    /// Why: every estimate and modelled cost the decision read.
    pub report: PlanReport,
}

impl ShardPlan {
    /// Planned worker count.
    pub fn shards(&self) -> usize {
        self.sharder.shards()
    }

    /// Planned routing family.
    pub fn partitioner(&self) -> ShardPartitioner {
        self.report.partitioner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_below_capacity() {
        let mut r = Reservoir::new(64, 9);
        for k in 0..40u64 {
            r.offer(k);
        }
        assert_eq!(r.seen(), 40);
        assert_eq!(r.sample().len(), 40);
        let mut s = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_is_deterministic_and_capped() {
        let run = |seed| {
            let mut r = Reservoir::new(32, seed);
            for k in 0..10_000u64 {
                r.offer(k);
            }
            r.sample().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "seed must matter");
        assert_eq!(run(7).len(), 32);
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Offer 0..10_000 into a 500-slot reservoir many times; the mean
        // of the sampled keys should approach the stream mean.
        let mut total = 0f64;
        let mut n = 0f64;
        for seed in 0..20u64 {
            let mut r = Reservoir::new(500, seed);
            for k in 0..10_000u64 {
                r.offer(k);
            }
            total += r.sample().iter().map(|&k| k as f64).sum::<f64>();
            n += r.sample().len() as f64;
        }
        let mean = total / n;
        assert!((mean - 5_000.0).abs() < 400.0, "sample mean {mean}");
    }

    #[test]
    fn kmv_is_exact_for_small_domains() {
        let mut s = DistinctSketch::new(64);
        for k in 0..50u64 {
            s.offer(k % 10);
        }
        assert_eq!(s.estimate(), 10.0);
    }

    #[test]
    fn kmv_estimates_large_domains_within_tolerance() {
        let mut s = DistinctSketch::new(256);
        for k in 0..100_000u64 {
            s.offer(k);
        }
        let est = s.estimate();
        assert!((est - 100_000.0).abs() / 100_000.0 < 0.25, "estimate {est}");
    }

    /// The textbook KMV the sketch replaced: insert every hash into an
    /// ordered set, drop the largest once it holds `k + 1`.
    fn naive_kmv(k: usize, keys: impl IntoIterator<Item = u64>) -> (BTreeSet<u64>, f64) {
        let mut mins = BTreeSet::new();
        for key in keys {
            mins.insert(mix64(key ^ SKETCH_SALT));
            if mins.len() > k {
                mins.pop_last();
            }
        }
        let estimate = if mins.len() < k {
            mins.len() as f64
        } else {
            let u = (*mins.last().unwrap() as f64 + 1.0) / (u64::MAX as f64 + 1.0);
            (k as f64 - 1.0) / u
        };
        (mins, estimate)
    }

    fn assert_matches_naive(k: usize, keys: &[u64], what: &str) {
        let mut sketch = DistinctSketch::new(k);
        for &key in keys {
            sketch.offer(key);
        }
        let (mins, estimate) = naive_kmv(k, keys.iter().copied());
        assert_eq!(sketch.mins, mins, "{what}: min set");
        assert_eq!(sketch.estimate().to_bits(), estimate.to_bits(), "{what}: estimate");
    }

    /// Inverse of `mix64`, so a test can pick the key behind any hash.
    fn unmix64(y: u64) -> u64 {
        let unshift = |y: u64, s: u32| {
            let mut x = y;
            for _ in 0..64 / s + 1 {
                x = y ^ (x >> s);
            }
            x
        };
        let inverse = |c: u64| {
            let mut inv = c;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
            }
            inv
        };
        let x = unshift(y, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let x = unshift(x, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(x, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn sketch_equals_the_naive_kmv_on_seeded_streams() {
        // All distinct: the set fills, then nearly every key is rejected
        // by the max comparison.
        let distinct: Vec<u64> = (0..50_000u64).map(|i| mix64(i ^ 0xA11)).collect();
        assert_matches_naive(DEFAULT_SKETCH_K, &distinct, "all distinct");
        // Fewer than k distinct keys, each repeated: only the filter and
        // the set see them; the estimate stays exact.
        let few: Vec<u64> = (0..20_000u64).map(|i| mix64(i) % 200).collect();
        assert_matches_naive(DEFAULT_SKETCH_K, &few, "fewer than k distinct");
        // Zipf(1) over 100k ranks (log-uniform draws): hot keys repeat
        // while the tail keeps evicting.
        let zipf: Vec<u64> = (0..200_000u64)
            .map(|i| {
                let u = (mix64(i ^ 0x21BF) >> 11) as f64 / (1u64 << 53) as f64;
                100_000f64.powf(u) as u64
            })
            .collect();
        assert_matches_naive(DEFAULT_SKETCH_K, &zipf, "zipf");
        assert_matches_naive(2, &zipf, "zipf, k = 2");
    }

    #[test]
    fn a_key_hashing_to_the_filter_marker_is_still_counted() {
        let key = unmix64(SEEN_EMPTY) ^ SKETCH_SALT;
        assert_eq!(mix64(key ^ SKETCH_SALT), SEEN_EMPTY);
        let mut stream = vec![key, key, 5, key];
        stream.extend(0..1_000u64);
        stream.push(key);
        assert_matches_naive(DEFAULT_SKETCH_K, &stream, "marker hash");
        let mut sketch = DistinctSketch::new(4);
        sketch.offer(key);
        assert!(sketch.mins.contains(&SEEN_EMPTY), "the smallest hash must be kept");
        assert_eq!(sketch.estimate(), 1.0);
    }

    #[test]
    fn sampler_reads_skew_and_distincts() {
        let mut s = KeySampler::new(512, 3);
        // 60% one hot key, 40% spread over 1000 keys.
        for i in 0..10_000u64 {
            s.offer(if i % 5 < 3 { 42 } else { mix64(i) });
        }
        let stats = s.finish();
        assert_eq!(stats.rows, 10_000);
        assert!(stats.top_key_mass > 0.45 && stats.top_key_mass < 0.75, "{}", stats.top_key_mass);
        assert!(stats.distinct_estimate > 1_000.0, "{}", stats.distinct_estimate);
        assert!(!stats.all_keys_equal());
    }

    #[test]
    fn all_equal_keys_are_detected() {
        let mut s = KeySampler::new(64, 1);
        for _ in 0..500 {
            s.offer(77);
        }
        let stats = s.finish();
        assert!(stats.all_keys_equal());
        assert_eq!(stats.top_key_mass, 1.0);
        assert_eq!(stats.distinct_estimate, 1.0);
    }

    #[test]
    fn fitted_boundaries_balance_a_clustered_sample() {
        // Keys clustered in [1000, 1100): equal key-space spans would
        // serialize them; quantile cuts split them evenly.
        let sample: Vec<u64> = (0..400u64).map(|i| 1_000 + i % 100).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let bounds = fit_boundaries(&sorted, 4);
        assert_eq!(bounds.len(), 3);
        let sharder = Sharder::fitted_range(bounds).unwrap();
        let load = max_load_fraction(&sample, &sharder);
        assert!(load < 0.35, "fitted load {load}");
        // The naive equal-span sharder over the full space piles
        // everything onto one shard.
        let naive = Sharder::new(ShardPartitioner::Range, 4, 0);
        assert_eq!(max_load_fraction(&sample, &naive), 1.0);
    }

    #[test]
    fn fitted_boundaries_degenerate_cases() {
        assert!(fit_boundaries(&[], 4).is_empty());
        assert!(fit_boundaries(&[1, 2, 3], 1).is_empty());
        // All-equal sample: every cut lands on the same value.
        let bounds = fit_boundaries(&[5, 5, 5, 5], 3);
        assert_eq!(bounds, vec![5, 5]);
    }

    #[test]
    fn max_load_fraction_reads_the_worst_shard() {
        let sharder = Sharder::new(ShardPartitioner::Hash, 4, 9);
        let one_key = vec![123u64; 100];
        assert_eq!(max_load_fraction(&one_key, &sharder), 1.0);
        let spread: Vec<u64> = (0..10_000).collect();
        let load = max_load_fraction(&spread, &sharder);
        assert!(load < 0.30, "hash load {load}");
        assert_eq!(max_load_fraction(&[], &sharder), 0.25);
    }

    #[test]
    fn plan_decision_accessors() {
        let d = PlanDecision::Planned(ShardPartitioner::Range);
        assert!(d.is_planned());
        assert_eq!(d.partitioner(), ShardPartitioner::Range);
        assert!(!PlanDecision::Fixed(ShardPartitioner::Hash).is_planned());
    }

    #[test]
    fn cost_point_totals() {
        let p = ShardCostPoint { shards: 4, worker_seconds: 1.0, merge_seconds: 0.5 };
        assert_eq!(p.total(), 1.5);
    }
}
