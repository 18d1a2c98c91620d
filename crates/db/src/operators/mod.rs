//! The seven query operators: one [`PruningOperator`] impl per query
//! shape, one file per operator.
//!
//! # The contract
//!
//! A [`PruningOperator`](cheetah_core::PruningOperator) answers exactly
//! four questions — everything else (threaded serialization, planning,
//! pass loops, byte accounting, timing) is the generic executor's job
//! ([`Cluster::execute`](crate::Cluster::execute)):
//!
//! | question | method | e.g. DISTINCT |
//! |---|---|---|
//! | which switch program? | `spec()` | `QuerySpec::Distinct(matrix cfg)` |
//! | how does a row become packet slots? | `encode()` | one slot: the encoded key |
//! | what does the master do with survivors? | `complete()` | collect + normalize values |
//! | what pass structure? | `pass_plan()` | [`PassPlan::Single`](cheetah_core::PassPlan) |
//!
//! The executor guarantees the pruning contract's shape: `complete`
//! receives *every* forwarded entry and may re-fetch the true row values
//! by entry id — so probabilistic switch structures (fingerprints, Bloom
//! filters, Count-Min) never corrupt the output, they only change how
//! much survives.
//!
//! # Adding a query type
//!
//! 1. Create `operators/<name>.rs` with a struct holding the query's
//!    parameters (plus whatever [`CheetahTuning`] knobs it reads).
//! 2. Implement `PruningOperator<Tables<'a>, Encoded>`: build the
//!    [`QuerySpec`](cheetah_core::QuerySpec) (add a pruning algorithm to
//!    `cheetah-core` first if none fits), encode the queried columns into
//!    value slots, and complete the query from the survivors. Pick the
//!    [`PassPlan`](cheetah_core::PassPlan) matching the algorithm's pass
//!    structure; `streams()`/`flow_id()` only matter for binary queries.
//! 3. Dispatch to it from
//!    [`Cluster::run_cheetah`](crate::Cluster::run_cheetah) (or call
//!    `Cluster::execute` directly for operators outside [`DbQuery`]).
//!
//! That is the whole surface: the eighth query type is a one-file PR.
//!
//! [`CheetahTuning`]: crate::engine::CheetahTuning
//! [`DbQuery`]: crate::query::DbQuery
//! [`PruningOperator`]: cheetah_core::PruningOperator

mod distinct;
mod filter;
mod groupby;
mod having;
mod join;
mod skyline;
mod topn;

pub use distinct::DistinctOp;
pub use filter::{filter_config_of, FilterOp};
pub use groupby::GroupByMaxOp;
pub use having::HavingSumOp;
pub use join::JoinOp;
pub use skyline::SkylineOp;
pub use topn::TopNOp;

use crate::executor::Tables;
use crate::table::Table;
use crate::value::{encode_ordered_i64, Value};
use cheetah_switch::HashFn;

/// The table behind stream `stream`. Operators run only under the generic
/// executor, which rejects a stream-arity mismatch with a typed error
/// before any operator code runs — so resolution here cannot fail.
pub(crate) fn stream_table<'a>(src: &Tables<'a>, stream: usize) -> &'a Table {
    src.stream(stream).expect("executor validates stream arity before running the operator")
}

/// Key encoding shared by the operators: ints map order-preservingly;
/// strings are 63-bit fingerprints (the CWorker cannot ship
/// variable-length strings in a fixed header — §5 Example #8).
pub(crate) fn encode_key(seed: u64, v: &Value) -> u64 {
    match v {
        Value::Int(x) => encode_ordered_i64(*x),
        Value::Str(s) => encode_str_key(&HashFn::from_seed(seed), s),
    }
}

/// [`encode_key`] of a string cell, with the seeded hash built once by
/// the caller: the column-at-a-time encoders call this per row.
#[inline]
pub(crate) fn encode_str_key(hash: &HashFn, s: &str) -> u64 {
    hash.hash_bytes(s.as_bytes()) >> 1
}

/// Clamped order-preserving 32-bit encoding for aggregate/order columns
/// (register cells hold 32-bit values; saturation only ever *reduces*
/// pruning, never correctness — saturated values tie and ties forward).
pub(crate) fn encode_i64_32(v: i64) -> u64 {
    (v.saturating_add(1 << 31).clamp(0, u32::MAX as i64)) as u64
}
