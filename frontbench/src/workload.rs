//! Seeded workload generation: tables, query shapes, request sequences
//! and the baseline engine's reference answers.
//!
//! Everything here is a pure function of the workload seed. The program
//! under test only ever sees the generated tables and requests.

use cheetah_db::{
    Cluster, Column, DataType, DbPredicate, DbQuery, IntCmp, Partition, QueryOutput, Table,
};
use cheetah_workloads::{BigDataConfig, SkewedTableConfig, Zipf};
use std::sync::Arc;

/// The seven query families of the paper's Big Data benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Filter,
    Distinct,
    Skyline,
    Topn,
    Groupby,
    Join,
    Having,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::Filter,
        Family::Distinct,
        Family::Skyline,
        Family::Topn,
        Family::Groupby,
        Family::Join,
        Family::Having,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Filter => "filter",
            Family::Distinct => "distinct",
            Family::Skyline => "skyline",
            Family::Topn => "topn",
            Family::Groupby => "groupby",
            Family::Join => "join",
            Family::Having => "having",
        }
    }
}

/// The three workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanLarge,
    Dashboard,
    FreshTables,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ScanLarge, Workload::Dashboard, Workload::FreshTables];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanLarge => "scan-large",
            Workload::Dashboard => "dashboard",
            Workload::FreshTables => "fresh-tables",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes of one run. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// scan-large: UserVisits rows (Rankings gets half).
    pub uservisits_rows: usize,
    /// dashboard: rows of each tenant table.
    pub dashboard_rows: usize,
    /// fresh-tables: inclusive row range of each fresh table.
    pub fresh_rows: (usize, usize),
}

impl Scale {
    pub fn full() -> Scale {
        Scale { uservisits_rows: 1_000_000, dashboard_rows: 6_000, fresh_rows: (5_000, 50_000) }
    }

    pub fn tiny() -> Scale {
        Scale { uservisits_rows: 8_000, dashboard_rows: 600, fresh_rows: (500, 2_000) }
    }
}

/// Dashboard tenants.
pub const TENANTS: usize = 4;
/// Names fresh tables rotate through (part of the session's shape key).
pub const FRESH_NAMES: [&str; 2] = ["fresh-a", "fresh-b"];
/// fresh-tables warm-up tables per session: one per (name, family) shape.
pub const FRESH_WARM: u64 = (FRESH_NAMES.len() * Family::ALL.len()) as u64;

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request shape with its inputs and the baseline engine's answer.
#[derive(Clone)]
pub struct Shape {
    pub family: Family,
    pub query: DbQuery,
    pub left: Arc<Table>,
    pub right: Option<Arc<Table>>,
    pub tenant: String,
    pub answer: QueryOutput,
}

impl Shape {
    fn new(
        family: Family,
        query: DbQuery,
        left: Arc<Table>,
        right: Option<Arc<Table>>,
        tenant: String,
    ) -> Shape {
        let answer = Cluster::default().run_baseline(&query, &left, right.as_deref()).output;
        Shape { family, query, left, right, tenant, answer }
    }

    /// Input rows across both streams.
    pub fn rows(&self) -> u64 {
        (self.left.rows() + self.right.as_ref().map_or(0, |r| r.rows())) as u64
    }

    /// The session's structural key for this request: query, then the
    /// table names. Mirrors how the serving plane caches plans.
    pub fn shape_key(&self) -> String {
        format!(
            "{:?}|{}|{}",
            self.query,
            self.left.name(),
            self.right.as_ref().map_or("-", |r| r.name())
        )
    }
}

/// scan-large: the seven paper queries over resident UserVisits and
/// Rankings, one shape per family, in round-robin order.
pub fn scan_large(seed: u64, scale: &Scale) -> Vec<Shape> {
    let rows = scale.uservisits_rows;
    let bd = BigDataConfig {
        uservisits_rows: rows,
        rankings_rows: rows / 2,
        partitions: 4,
        // About a quarter of visits hit a ranked page, as in the
        // bigdata_benchmark example, so the join has pruning to do.
        url_universe: Some(rows * 2),
        seed: mix(seed ^ 0xB16),
        ..Default::default()
    };
    let rankings = Arc::new(bd.rankings());
    let uservisits = Arc::new(bd.uservisits());
    let t = || "bigdata".to_string();
    let uv = || Arc::clone(&uservisits);
    let rk = || Arc::clone(&rankings);
    vec![
        Shape::new(
            Family::Filter,
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt {
                    col: BigDataConfig::RANKINGS_AVG_DURATION,
                    op: IntCmp::Lt,
                    lit: 10,
                },
            },
            rk(),
            None,
            t(),
        ),
        Shape::new(
            Family::Distinct,
            DbQuery::Distinct { col: BigDataConfig::UV_USER_AGENT },
            uv(),
            None,
            t(),
        ),
        Shape::new(
            Family::Skyline,
            DbQuery::Skyline {
                cols: vec![BigDataConfig::RANKINGS_PAGE_RANK, BigDataConfig::RANKINGS_AVG_DURATION],
            },
            rk(),
            None,
            t(),
        ),
        Shape::new(
            Family::Topn,
            DbQuery::TopN { order_col: BigDataConfig::UV_AD_REVENUE, n: 250 },
            uv(),
            None,
            t(),
        ),
        Shape::new(
            Family::Groupby,
            DbQuery::GroupByMax {
                key_col: BigDataConfig::UV_USER_AGENT,
                val_col: BigDataConfig::UV_AD_REVENUE,
            },
            uv(),
            None,
            t(),
        ),
        Shape::new(
            Family::Join,
            DbQuery::Join {
                left_key: BigDataConfig::UV_DEST_URL,
                right_key: BigDataConfig::RANKINGS_PAGE_URL,
            },
            uv(),
            Some(rk()),
            t(),
        ),
        Shape::new(
            Family::Having,
            DbQuery::HavingSum {
                key_col: BigDataConfig::UV_LANGUAGE,
                val_col: BigDataConfig::UV_AD_REVENUE,
                threshold: rows as i64 * 400,
            },
            uv(),
            None,
            t(),
        ),
    ]
}

/// The query of `family` over the `key: Str, value: Int, weight: Int`
/// schema of skewed and fresh tables.
fn skewed_query(family: Family, having_threshold: i64) -> DbQuery {
    match family {
        Family::Filter => DbQuery::FilterCount {
            pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 25_000 },
        },
        Family::Distinct => DbQuery::Distinct { col: 0 },
        Family::Skyline => DbQuery::Skyline { cols: vec![1, 2] },
        Family::Topn => DbQuery::TopN { order_col: 1, n: 10 },
        Family::Groupby => DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        Family::Join => DbQuery::Join { left_key: 0, right_key: 0 },
        Family::Having => {
            DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: having_threshold }
        }
    }
}

/// A small `key: Str, value: Int` join partner over the first 150 keys.
fn dim_table(name: &str, rows: usize, seed: u64) -> Table {
    let (mut keys, mut values) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    let mut x = seed;
    for _ in 0..rows {
        x = mix(x);
        keys.push(format!("key-{}", x % 150));
        values.push((x >> 32) as i64 % 1000);
    }
    Table::from_partition(
        name,
        vec![("key".into(), DataType::Str), ("value".into(), DataType::Int)],
        Partition::new(vec![Column::Str(keys), Column::Int(values)]),
    )
}

/// dashboard: four tenant tables, each with all seven families (the join
/// against one shared small table), 28 resident shapes in all. Shape
/// `tenant * 7 + family` belongs to `tenant`.
pub fn dashboard(seed: u64, scale: &Scale) -> Vec<Shape> {
    let dim = Arc::new(dim_table("dim", 512, mix(seed ^ 0xD1)));
    let mut shapes = Vec::new();
    for tenant in 0..TENANTS {
        let tseed = mix(seed ^ ((tenant as u64 + 1) * 0x7E4A));
        let rows = scale.dashboard_rows;
        let table = Arc::new(
            SkewedTableConfig { rows, partitions: 4, seed: tseed, ..Default::default() }.build(),
        );
        for family in Family::ALL {
            let right = (family == Family::Join).then(|| Arc::clone(&dim));
            shapes.push(Shape::new(
                family,
                // Mean weight is ~500, so keys holding more than 4 % of
                // the rows pass: a handful of the zipf head.
                skewed_query(family, rows as i64 * 20),
                Arc::clone(&table),
                right,
                format!("tenant-{tenant}"),
            ));
        }
    }
    shapes
}

/// Which dashboard shape the client sends as its `i`-th request. Each
/// block of 28 consecutive requests sends every shape once, in an order
/// the seed shuffles per block, so every run's mix holds each family
/// and tenant in the same proportion.
pub fn dashboard_pick(seed: u64, i: u64) -> usize {
    let n = TENANTS * Family::ALL.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = mix(seed ^ mix(i / n as u64));
    for k in (1..n).rev() {
        x = mix(x);
        order.swap(k, (x % (k as u64 + 1)) as usize);
    }
    order[(i % n as u64) as usize]
}

/// Row-count bands of fresh tables (see [`fresh_batch`]).
const FRESH_STRATA: u64 = 16;

/// fresh-tables: requests `first..first + n` (`first` and `n` multiples
/// of seven), each over a table built just for it: a name from
/// [`FRESH_NAMES`], families in round-robin order, joins with a fresh
/// right table too. Sizes are stratified so every batch of the same
/// length sees the same spread: the batch's rounds of seven requests
/// spread evenly over [`FRESH_STRATA`] bands of 5k–50k rows, and the
/// seed draws the size within each band.
pub fn fresh_batch(seed: u64, scale: &Scale, first: u64, n: u64) -> Vec<Shape> {
    let families = Family::ALL.len() as u64;
    assert!(
        first.is_multiple_of(families) && n.is_multiple_of(families),
        "fresh batches are whole rounds"
    );
    let rounds = n / families;
    (first..first + n)
        .map(|i| {
            let round = (i - first) / families;
            let stratum = (2 * round + 1) * FRESH_STRATA / (2 * rounds);
            fresh(seed, scale, i, stratum)
        })
        .collect()
}

fn fresh(seed: u64, scale: &Scale, i: u64, stratum: u64) -> Shape {
    let x = mix(seed ^ mix(i ^ 0xF2E5));
    let (lo, hi) = scale.fresh_rows;
    let width = (hi - lo) as u64 / FRESH_STRATA;
    let rows = lo + (stratum * width + x % (width + 1)) as usize;
    let families = Family::ALL.len() as u64;
    let family = Family::ALL[(i % families) as usize];
    let name = FRESH_NAMES[(i / families) as usize % FRESH_NAMES.len()];
    let table = Arc::new(skewed_named(name, rows, mix(x)));
    let right = (family == Family::Join)
        .then(|| Arc::new(dim_table("fresh-dim", rows / 10 + 1, mix(x ^ 1))));
    // One threshold for every size, so the having shape repeats; only
    // the larger tables' zipf head passes it.
    Shape::new(family, skewed_query(family, 300_000), table, right, "fresh".into())
}

/// A table with `SkewedTableConfig`'s schema and key law (zipf 1.1
/// over 100 keys) under a caller-chosen name, built column-wise as one
/// partition, as a freshly loaded table arrives.
fn skewed_named(name: &str, rows: usize, seed: u64) -> Table {
    let mut zipf = Zipf::new(100, 1.1, seed ^ 0x4E4);
    let names: Vec<String> = (0..100).map(|k| format!("key-{k}")).collect();
    let (mut keys, mut values, mut weights) =
        (Vec::with_capacity(rows), Vec::with_capacity(rows), Vec::with_capacity(rows));
    let mut x = seed | 1;
    for _ in 0..rows {
        x = mix(x);
        keys.push(names[zipf.sample()].clone());
        values.push((x % 100_000) as i64);
        weights.push(((x >> 32) % 1_000) as i64);
    }
    Table::from_partition(
        name,
        vec![
            ("key".into(), DataType::Str),
            ("value".into(), DataType::Int),
            ("weight".into(), DataType::Int),
        ],
        Partition::new(vec![Column::Str(keys), Column::Int(values), Column::Int(weights)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(shapes: &[Shape]) -> Vec<String> {
        shapes
            .iter()
            .map(|s| format!("{}|{:?}|{:?}|{:?}", s.tenant, s.query, s.left.partitions(), s.answer))
            .collect()
    }

    #[test]
    fn same_seed_same_tables_and_requests() {
        let scale = Scale::tiny();
        assert_eq!(fingerprint(&scan_large(7, &scale)), fingerprint(&scan_large(7, &scale)));
        assert_eq!(fingerprint(&dashboard(7, &scale)), fingerprint(&dashboard(7, &scale)));
        let picks = |seed| (0..64).map(|i| dashboard_pick(seed, i)).collect::<Vec<_>>();
        assert_eq!(picks(7), picks(7));
        let fresh_seq = |seed| fresh_batch(seed, &scale, 0, 14);
        assert_eq!(fingerprint(&fresh_seq(7)), fingerprint(&fresh_seq(7)));
    }

    #[test]
    fn different_seed_different_tables_and_requests() {
        let scale = Scale::tiny();
        assert_ne!(fingerprint(&scan_large(7, &scale)), fingerprint(&scan_large(8, &scale)));
        assert_ne!(fingerprint(&dashboard(7, &scale)), fingerprint(&dashboard(8, &scale)));
        let picks = |seed| (0..64).map(|i| dashboard_pick(seed, i)).collect::<Vec<_>>();
        assert_ne!(picks(7), picks(8));
        let fresh_seq = |seed| fresh_batch(seed, &scale, 0, 14);
        assert_ne!(fingerprint(&fresh_seq(7)), fingerprint(&fresh_seq(8)));
    }

    #[test]
    fn every_family_appears_and_answers_are_non_trivial() {
        let scale = Scale::tiny();
        let shapes = dashboard(3, &scale);
        assert_eq!(shapes.len(), TENANTS * Family::ALL.len());
        let mut block: Vec<usize> = (28..56).map(|i| dashboard_pick(3, i)).collect();
        block.sort();
        assert_eq!(block, (0..28).collect::<Vec<_>>(), "a block sends every shape once");
        for s in &shapes {
            assert_ne!(s.answer, QueryOutput::Count(0), "{:?}", s.family);
            assert_ne!(s.answer, QueryOutput::JoinPairs(0), "{:?}", s.family);
        }
        let batch = fresh_batch(3, &scale, 7, 112);
        let fams: Vec<Family> = batch[..7].iter().map(|s| s.family).collect();
        assert_eq!(fams, Family::ALL.to_vec());
        // Each family walks all sixteen size bands once per 112 requests.
        let (lo, w) = (scale.fresh_rows.0, (scale.fresh_rows.1 - scale.fresh_rows.0) / 16);
        let mut sizes: Vec<usize> =
            batch.iter().filter(|s| s.family == Family::Skyline).map(|s| s.left.rows()).collect();
        sizes.sort();
        for (band, rows) in sizes.iter().enumerate() {
            assert!((lo + band * w..=lo + (band + 1) * w).contains(rows), "band {band}: {rows}");
        }
    }
}
