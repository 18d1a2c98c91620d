//! `SELECT DISTINCT <col>` — §4.2 Example #2.
//!
//! The switch's eviction matrix forwards the first sighting of each key;
//! the master re-fetches the true column values of the survivors and
//! normalizes (duplicates from matrix evictions collapse there).

use super::{encode_key, encode_str_key};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Column;
use crate::value::{encode_ordered_i64, Value};
use cheetah_core::{DistinctConfig, PruningOperator, QuerySpec};
use cheetah_net::Encoded;
use cheetah_switch::HashFn;

/// The DISTINCT operator.
pub struct DistinctOp {
    col: usize,
    cfg: DistinctConfig,
    seed: u64,
}

impl DistinctOp {
    /// DISTINCT over column `col` with the cluster's matrix tuning.
    pub fn new(col: usize, tuning: &CheetahTuning) -> Self {
        Self { col, cfg: tuning.distinct, seed: tuning.seed }
    }
}

impl<'a> PruningOperator<Tables<'a>, Encoded> for DistinctOp {
    type Output = QueryOutput;

    fn kind(&self) -> &'static str {
        "distinct"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Distinct(self.cfg))
    }

    fn encode(&self, src: &Tables<'a>, stream: usize, part: usize, row: usize, out: &mut Vec<u64>) {
        let p = &super::stream_table(src, stream).partitions()[part];
        out.push(encode_key(self.seed, &p.column(self.col).get(row)));
    }

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        // Hoisted twin of `encode`: one type dispatch per partition, no
        // per-row `Value` boxing (string keys hash in place).
        let p = &super::stream_table(src, stream).partitions()[part];
        match p.column(self.col) {
            Column::Int(v) => {
                for &x in &v[..rows] {
                    sink(&[encode_ordered_i64(x)]);
                }
            }
            Column::Str(v) => {
                let h = HashFn::from_seed(self.seed);
                for s in &v[..rows] {
                    sink(&[encode_str_key(&h, s)]);
                }
            }
        }
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        let vals: Vec<Value> = survivors[0]
            .iter()
            .map(|e| {
                let (pi, r) = e.id();
                src.left.partitions()[pi].column(self.col).get(r)
            })
            .collect();
        QueryOutput::values(vals)
    }
}
