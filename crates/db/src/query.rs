//! Query specifications and normalized outputs.
//!
//! The seven query shapes mirror the paper's benchmark queries (Appendix
//! B). Outputs are *normalized* (sorted / keyed) so the baseline path and
//! the Cheetah path can be compared with `==` — the pruning correctness
//! contract `Q(A_Q(D)) = Q(D)` is checked exactly this way throughout the
//! test-suite.

use crate::expr::DbPredicate;
use crate::table::Table;
use crate::value::{DataType, Value};
use cheetah_core::FilterPruner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A query over one table (or two, for JOIN).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DbQuery {
    /// `SELECT COUNT(*) FROM t WHERE <pred>` — benchmark query 1
    /// (BigData A).
    FilterCount {
        /// The WHERE predicate.
        pred: DbPredicate,
    },
    /// `SELECT DISTINCT <col> FROM t` — benchmark query 2.
    Distinct {
        /// The projected column.
        col: usize,
    },
    /// `SELECT * FROM t SKYLINE OF <cols>` (maximizing) — benchmark
    /// query 3.
    Skyline {
        /// The skyline dimensions (int columns).
        cols: Vec<usize>,
    },
    /// `SELECT TOP <n> * FROM t ORDER BY <order_col> DESC` — benchmark
    /// query 4. Output is normalized to the sorted multiset of order
    /// values (tie-breaking among equal values is unspecified in SQL).
    TopN {
        /// The ORDER BY column (int).
        order_col: usize,
        /// How many rows to return.
        n: usize,
    },
    /// `SELECT <key>, MAX(<val>) FROM t GROUP BY <key>` — benchmark
    /// query 5.
    GroupByMax {
        /// Grouping column.
        key_col: usize,
        /// Aggregated int column.
        val_col: usize,
    },
    /// `SELECT * FROM left JOIN right ON left.<lk> = right.<rk>` —
    /// benchmark query 6. Output is normalized to the join-pair count.
    Join {
        /// Key column in the left table.
        left_key: usize,
        /// Key column in the right table.
        right_key: usize,
    },
    /// `SELECT <key> FROM t GROUP BY <key> HAVING SUM(<val>) > <c>` —
    /// benchmark query 7 (BigData B's offloadable form).
    HavingSum {
        /// Grouping column.
        key_col: usize,
        /// Summed int column.
        val_col: usize,
        /// The threshold `c`.
        threshold: i64,
    },
}

impl DbQuery {
    /// Short name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            DbQuery::FilterCount { .. } => "filter-count",
            DbQuery::Distinct { .. } => "distinct",
            DbQuery::Skyline { .. } => "skyline",
            DbQuery::TopN { .. } => "topn",
            DbQuery::GroupByMax { .. } => "groupby-max",
            DbQuery::Join { .. } => "join",
            DbQuery::HavingSum { .. } => "having-sum",
        }
    }

    /// Does the query read two tables?
    pub fn is_binary(&self) -> bool {
        matches!(self, DbQuery::Join { .. })
    }

    /// The columns of stream `stream`'s table the query reads, ascending
    /// and deduplicated (empty for a stream the query does not read).
    ///
    /// A table cut down to exactly these columns, in this order, answers
    /// [`DbQuery::projected`] exactly as the full table answers `self`.
    pub fn columns_read(&self, stream: usize) -> Vec<usize> {
        let mut cols = match (self, stream) {
            (DbQuery::FilterCount { pred }, 0) => pred.columns(),
            (DbQuery::Distinct { col }, 0) => vec![*col],
            (DbQuery::Skyline { cols }, 0) => cols.clone(),
            (DbQuery::TopN { order_col, .. }, 0) => vec![*order_col],
            (DbQuery::GroupByMax { key_col, val_col }, 0)
            | (DbQuery::HavingSum { key_col, val_col, .. }, 0) => vec![*key_col, *val_col],
            (DbQuery::Join { left_key, .. }, 0) => vec![*left_key],
            (DbQuery::Join { right_key, .. }, 1) => vec![*right_key],
            _ => Vec::new(),
        };
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The same query over projected tables: every column index of
    /// stream `s` renumbered to its position in
    /// [`columns_read(s)`](DbQuery::columns_read). Column order is kept,
    /// so the switch program, the pruning counters and the output do not
    /// change.
    pub fn projected(&self) -> DbQuery {
        let read = [self.columns_read(0), self.columns_read(1)];
        let at = |stream: usize, col: usize| {
            read[stream].binary_search(&col).expect("the query reads its own columns")
        };
        let left = |col: usize| at(0, col);
        match self {
            DbQuery::FilterCount { pred } => DbQuery::FilterCount { pred: pred.remap(&left) },
            DbQuery::Distinct { col } => DbQuery::Distinct { col: left(*col) },
            DbQuery::Skyline { cols } => {
                DbQuery::Skyline { cols: cols.iter().map(|&c| left(c)).collect() }
            }
            DbQuery::TopN { order_col, n } => DbQuery::TopN { order_col: left(*order_col), n: *n },
            DbQuery::GroupByMax { key_col, val_col } => {
                DbQuery::GroupByMax { key_col: left(*key_col), val_col: left(*val_col) }
            }
            DbQuery::HavingSum { key_col, val_col, threshold } => DbQuery::HavingSum {
                key_col: left(*key_col),
                val_col: left(*val_col),
                threshold: *threshold,
            },
            DbQuery::Join { left_key, right_key } => {
                DbQuery::Join { left_key: left(*left_key), right_key: at(1, *right_key) }
            }
        }
    }

    /// Check the query against the tables it would run over, before any
    /// work: a right table exactly when the query is binary, every column
    /// index inside its table's schema with the type the family needs
    /// (integers for comparisons, TOP N order, aggregated values and
    /// skyline dimensions; strings for LIKE), at least one column read
    /// per input stream, and no more filter atoms than the switch's truth
    /// table holds. `Err` carries a one-line reason. A query that passes
    /// runs on both engines without tripping a schema assertion.
    pub fn check_inputs(&self, left: &Table, right: Option<&Table>) -> Result<(), String> {
        let kind = self.kind();
        match (self.is_binary(), right) {
            (true, None) => return Err(format!("{kind} needs a right table")),
            (false, Some(_)) => return Err(format!("{kind} reads one table, got a right table")),
            _ => {}
        }
        if let DbQuery::FilterCount { pred } = self {
            let atoms = pred.atom_columns().len();
            if atoms > FilterPruner::MAX_ATOMS {
                return Err(format!(
                    "{kind} has {atoms} predicate atoms, the switch holds at most {}",
                    FilterPruner::MAX_ATOMS
                ));
            }
        }
        for (stream, table) in std::iter::once(left).chain(right).enumerate() {
            if self.columns_read(stream).is_empty() {
                return Err(format!("{kind} reads no column of input stream {stream}"));
            }
            for (col, need) in self.column_types(stream) {
                let Some((name, have)) = table.fields().get(col) else {
                    return Err(format!(
                        "{kind} reads column {col} of `{}`, which has {} columns",
                        table.name(),
                        table.fields().len()
                    ));
                };
                if let Some(need) = need.filter(|need| need != have) {
                    return Err(format!(
                        "{kind} needs column {col} (`{name}`) of `{}` to be {need:?}, it is {have:?}",
                        table.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every column stream `stream` reads, with the type it must have
    /// (`None` when any type works, as for keys).
    fn column_types(&self, stream: usize) -> Vec<(usize, Option<DataType>)> {
        let int = Some(DataType::Int);
        match (self, stream) {
            (DbQuery::FilterCount { pred }, 0) => {
                pred.atom_columns().into_iter().map(|(c, t)| (c, Some(t))).collect()
            }
            (DbQuery::Distinct { col }, 0) => vec![(*col, None)],
            (DbQuery::Skyline { cols }, 0) => cols.iter().map(|&c| (c, int)).collect(),
            (DbQuery::TopN { order_col, .. }, 0) => vec![(*order_col, int)],
            (DbQuery::GroupByMax { key_col, val_col }, 0)
            | (DbQuery::HavingSum { key_col, val_col, .. }, 0) => {
                vec![(*key_col, None), (*val_col, int)]
            }
            (DbQuery::Join { left_key, .. }, 0) => vec![(*left_key, None)],
            (DbQuery::Join { right_key, .. }, 1) => vec![(*right_key, None)],
            _ => Vec::new(),
        }
    }

    /// Is the master merge correct under *any* deterministic assignment
    /// of rows to shard runs — including a shard's rows split across
    /// several executor runs?
    ///
    /// Re-prune merges (TOP N, SKYLINE, DISTINCT), count sums, and
    /// GROUP BY MAX (max of maxes over any cover of the rows) are; HAVING
    /// needs every row of a key inside one shard run for its local sum +
    /// threshold to be global, and JOIN needs both streams co-partitioned
    /// into the same runs. The streamed executor reads this to refuse a
    /// multi-round layout for a query whose whole shard input must reach
    /// one executor run.
    pub fn merge_routing_agnostic(&self) -> bool {
        match self {
            DbQuery::FilterCount { .. }
            | DbQuery::Distinct { .. }
            | DbQuery::TopN { .. }
            | DbQuery::Skyline { .. }
            | DbQuery::GroupByMax { .. } => true,
            DbQuery::HavingSum { .. } | DbQuery::Join { .. } => false,
        }
    }
}

/// Normalized query output, comparable with `==` across execution paths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutput {
    /// A row count.
    Count(u64),
    /// A sorted set of values (DISTINCT).
    Values(Vec<Value>),
    /// Sorted-descending multiset of the order column's top values.
    TopValues(Vec<i64>),
    /// Key → aggregate (GROUP BY MAX, HAVING sums).
    KeyedInts(BTreeMap<Value, i64>),
    /// Join-pair count.
    JoinPairs(u64),
    /// Sorted set of skyline points.
    Points(Vec<Vec<i64>>),
}

impl QueryOutput {
    /// Construct a normalized [`QueryOutput::Values`].
    pub fn values(mut vals: Vec<Value>) -> Self {
        vals.sort();
        vals.dedup();
        QueryOutput::Values(vals)
    }

    /// Construct a normalized [`QueryOutput::TopValues`].
    pub fn top_values(mut vals: Vec<i64>) -> Self {
        vals.sort_unstable_by(|a, b| b.cmp(a));
        QueryOutput::TopValues(vals)
    }

    /// Construct a normalized [`QueryOutput::Points`].
    pub fn points(mut pts: Vec<Vec<i64>>) -> Self {
        pts.sort();
        pts.dedup();
        QueryOutput::Points(pts)
    }

    /// Rough output cardinality (rows/keys/points), for reports.
    pub fn cardinality(&self) -> u64 {
        match self {
            QueryOutput::Count(_) | QueryOutput::JoinPairs(_) => 1,
            QueryOutput::Values(v) => v.len() as u64,
            QueryOutput::TopValues(v) => v.len() as u64,
            QueryOutput::KeyedInts(m) => m.len() as u64,
            QueryOutput::Points(p) => p.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_normalization() {
        let a = QueryOutput::values(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let b = QueryOutput::values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn top_values_sorted_desc_with_duplicates() {
        let t = QueryOutput::top_values(vec![3, 9, 9, 1]);
        assert_eq!(t, QueryOutput::TopValues(vec![9, 9, 3, 1]));
    }

    #[test]
    fn points_normalization() {
        let a = QueryOutput::points(vec![vec![1, 2], vec![0, 0], vec![1, 2]]);
        assert_eq!(a, QueryOutput::Points(vec![vec![0, 0], vec![1, 2]]));
    }

    fn two_col_table() -> Table {
        let mut b = crate::table::TableBuilder::new(
            "two",
            vec![("k".into(), DataType::Str), ("v".into(), DataType::Int)],
            4,
        );
        b.push_row(vec![Value::Str("a".into()), Value::Int(1)]);
        b.build()
    }

    #[test]
    fn check_inputs_accepts_well_formed_queries() {
        use crate::expr::{IntCmp, LikePattern};
        let t = two_col_table();
        for q in [
            DbQuery::FilterCount {
                pred: DbPredicate::Or(vec![
                    DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 0 },
                    DbPredicate::Like { col: 0, pattern: LikePattern::parse("a%") },
                ]),
            },
            DbQuery::Distinct { col: 1 },
            DbQuery::Skyline { cols: vec![1, 1] },
            DbQuery::TopN { order_col: 1, n: 3 },
            DbQuery::GroupByMax { key_col: 1, val_col: 1 },
            DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 9 },
        ] {
            assert_eq!(q.check_inputs(&t, None), Ok(()), "{q:?}");
        }
        let join = DbQuery::Join { left_key: 0, right_key: 1 };
        assert_eq!(join.check_inputs(&t, Some(&t)), Ok(()));
    }

    #[test]
    fn check_inputs_names_what_is_wrong() {
        use crate::expr::{IntCmp, LikePattern};
        let t = two_col_table();
        let cmp = |col| DbPredicate::CmpInt { col, op: IntCmp::Lt, lit: 3 };
        let cases = [
            (DbQuery::Distinct { col: 9 }, None, "column 9"),
            (DbQuery::FilterCount { pred: DbPredicate::And(vec![]) }, None, "no column"),
            (DbQuery::Skyline { cols: vec![] }, None, "no column"),
            (DbQuery::FilterCount { pred: cmp(0) }, None, "be Int"),
            (
                DbQuery::FilterCount {
                    pred: DbPredicate::Like { col: 1, pattern: LikePattern::parse("%") },
                },
                None,
                "be Str",
            ),
            (DbQuery::FilterCount { pred: DbPredicate::Or(vec![cmp(1); 17]) }, None, "17"),
            (DbQuery::TopN { order_col: 0, n: 2 }, None, "be Int"),
            (DbQuery::GroupByMax { key_col: 1, val_col: 0 }, None, "be Int"),
            (DbQuery::HavingSum { key_col: 0, val_col: 5, threshold: 1 }, None, "column 5"),
            (DbQuery::Join { left_key: 0, right_key: 0 }, None, "right table"),
            (DbQuery::Join { left_key: 0, right_key: 2 }, Some(&t), "column 2"),
            (DbQuery::Distinct { col: 0 }, Some(&t), "right table"),
        ];
        for (q, right, want) in cases {
            let err = q.check_inputs(&t, right).expect_err(&format!("{q:?} must be rejected"));
            assert!(err.contains(want), "{q:?}: {err}");
        }
    }

    #[test]
    fn kinds() {
        assert_eq!(DbQuery::Distinct { col: 0 }.kind(), "distinct");
        assert!(DbQuery::Join { left_key: 0, right_key: 0 }.is_binary());
        assert!(!DbQuery::Distinct { col: 0 }.is_binary());
    }

    #[test]
    fn routing_agnosticism_splits_the_families_as_documented() {
        assert!(DbQuery::Distinct { col: 0 }.merge_routing_agnostic());
        assert!(DbQuery::TopN { order_col: 0, n: 3 }.merge_routing_agnostic());
        assert!(DbQuery::GroupByMax { key_col: 0, val_col: 1 }.merge_routing_agnostic());
        assert!(
            !DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 0 }.merge_routing_agnostic()
        );
        assert!(!DbQuery::Join { left_key: 0, right_key: 0 }.merge_routing_agnostic());
    }

    #[test]
    fn columns_read_and_projection_of_a_nested_filter() {
        use crate::expr::{DbPredicate, IntCmp, LikePattern};
        let q = DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 5, op: IntCmp::Gt, lit: 9 },
                DbPredicate::And(vec![
                    DbPredicate::Like { col: 2, pattern: LikePattern::parse("a%") },
                    DbPredicate::CmpInt { col: 5, op: IntCmp::Lt, lit: 3 },
                    DbPredicate::CmpInt { col: 7, op: IntCmp::Eq, lit: 1 },
                ]),
            ]),
        };
        assert_eq!(q.columns_read(0), vec![2, 5, 7]);
        assert!(q.columns_read(1).is_empty());
        let want = DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9 },
                DbPredicate::And(vec![
                    DbPredicate::Like { col: 0, pattern: LikePattern::parse("a%") },
                    DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 3 },
                    DbPredicate::CmpInt { col: 2, op: IntCmp::Eq, lit: 1 },
                ]),
            ]),
        };
        assert_eq!(q.projected(), want);
    }

    #[test]
    fn projection_keeps_skyline_dimension_order_and_repeats() {
        let q = DbQuery::Skyline { cols: vec![2, 1, 2] };
        assert_eq!(q.columns_read(0), vec![1, 2]);
        assert_eq!(q.projected(), DbQuery::Skyline { cols: vec![1, 0, 1] });
    }

    #[test]
    fn projection_renumbers_each_join_stream_on_its_own() {
        let q = DbQuery::Join { left_key: 3, right_key: 1 };
        assert_eq!(q.columns_read(0), vec![3]);
        assert_eq!(q.columns_read(1), vec![1]);
        assert_eq!(q.projected(), DbQuery::Join { left_key: 0, right_key: 0 });
    }

    #[test]
    fn projection_of_keyed_and_single_column_queries() {
        let q = DbQuery::HavingSum { key_col: 4, val_col: 1, threshold: -2 };
        assert_eq!(q.columns_read(0), vec![1, 4]);
        assert_eq!(q.projected(), DbQuery::HavingSum { key_col: 1, val_col: 0, threshold: -2 });
        let same = DbQuery::GroupByMax { key_col: 3, val_col: 3 };
        assert_eq!(same.columns_read(0), vec![3]);
        assert_eq!(same.projected(), DbQuery::GroupByMax { key_col: 0, val_col: 0 });
        assert_eq!(
            DbQuery::TopN { order_col: 6, n: 4 }.projected(),
            DbQuery::TopN { order_col: 0, n: 4 }
        );
        assert_eq!(DbQuery::Distinct { col: 9 }.projected(), DbQuery::Distinct { col: 0 });
        assert!(DbQuery::Distinct { col: 9 }.columns_read(1).is_empty());
    }

    #[test]
    fn cardinality() {
        assert_eq!(QueryOutput::Count(5).cardinality(), 1);
        assert_eq!(QueryOutput::values(vec![Value::Int(1), Value::Int(2)]).cardinality(), 2);
    }
}
