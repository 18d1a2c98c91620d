//! `SELECT <key>, MAX(<val>) … GROUP BY` — §8 / Figure 10d.
//!
//! The switch's per-key running-max matrix forwards entries that improve
//! their group's maximum; the master re-aggregates the survivors exactly
//! by true key value (fingerprint collisions only reduce pruning).

use super::{encode_i64_32, encode_key, encode_str_key};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Column;
use crate::value::{encode_ordered_i64, Value};
use cheetah_core::{AggKind, GroupByConfig, PruningOperator, QuerySpec};
use cheetah_net::Encoded;
use cheetah_switch::HashFn;
use std::collections::HashMap;

/// The GROUP BY (MAX) operator.
pub struct GroupByMaxOp {
    key_col: usize,
    val_col: usize,
    rows: usize,
    cols: usize,
    seed: u64,
}

impl GroupByMaxOp {
    /// MAX of `val_col` grouped by `key_col` with the cluster's matrix
    /// tuning.
    pub fn new(key_col: usize, val_col: usize, tuning: &CheetahTuning) -> Self {
        Self {
            key_col,
            val_col,
            rows: tuning.groupby_rows,
            cols: tuning.groupby_cols,
            seed: tuning.seed,
        }
    }
}

impl<'a> PruningOperator<Tables<'a>, Encoded> for GroupByMaxOp {
    type Output = QueryOutput;

    fn kind(&self) -> &'static str {
        "groupby-max"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::GroupBy(GroupByConfig {
            rows: self.rows,
            cols: self.cols,
            agg: AggKind::Max,
            key_bits: 31,
            seed: self.seed,
        }))
    }

    fn encode(&self, src: &Tables<'a>, stream: usize, part: usize, row: usize, out: &mut Vec<u64>) {
        let p = &super::stream_table(src, stream).partitions()[part];
        out.push(encode_key(self.seed, &p.column(self.key_col).get(row)));
        out.push(encode_i64_32(p.column(self.val_col).as_int().expect("int agg col")[row]));
    }

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        // Hoisted twin of `encode`: key-column type dispatch once per
        // partition, aggregate column taken as a raw slice.
        let p = &super::stream_table(src, stream).partitions()[part];
        let vals = p.column(self.val_col).as_int().expect("int agg col");
        match p.column(self.key_col) {
            Column::Int(keys) => {
                for r in 0..rows {
                    sink(&[encode_ordered_i64(keys[r]), encode_i64_32(vals[r])]);
                }
            }
            Column::Str(keys) => {
                let h = HashFn::from_seed(self.seed);
                for r in 0..rows {
                    sink(&[encode_str_key(&h, &keys[r]), encode_i64_32(vals[r])]);
                }
            }
        }
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        // Aggregate by *borrowed* key — the owned `Value` keys (one clone
        // per group, not per survivor) only materialize in the final map.
        let parts = src.left.partitions();
        match parts.first().map(|p| p.column(self.key_col)) {
            Some(Column::Str(_)) => {
                let mut best: HashMap<&str, i64> = HashMap::new();
                for e in &survivors[0] {
                    let (pi, r) = e.id();
                    let p = &parts[pi];
                    let k = p.column(self.key_col).as_str().expect("str key col")[r].as_str();
                    let v = p.column(self.val_col).as_int().expect("int agg col")[r];
                    best.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
                }
                QueryOutput::KeyedInts(
                    best.into_iter().map(|(k, v)| (Value::Str(k.to_string()), v)).collect(),
                )
            }
            _ => {
                let mut best: HashMap<i64, i64> = HashMap::new();
                for e in &survivors[0] {
                    let (pi, r) = e.id();
                    let p = &parts[pi];
                    let k = p.column(self.key_col).as_int().expect("int key col")[r];
                    let v = p.column(self.val_col).as_int().expect("int agg col")[r];
                    best.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
                }
                QueryOutput::KeyedInts(best.into_iter().map(|(k, v)| (Value::Int(k), v)).collect())
            }
        }
    }
}
