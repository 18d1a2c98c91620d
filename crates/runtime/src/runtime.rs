//! The streamed dataflow: dispatcher → pooled shard workers → incremental
//! merge.
//!
//! Three roles share the run:
//!
//! * the **dispatcher** (the calling thread, before the merge plane
//!   starts) walks a resident [`StreamLayout`] round by round and hands
//!   each shard its already-routed slices as work units, `Arc` clones
//!   over *unbounded* channels (so dispatch never blocks behind a slow
//!   worker);
//! * one **worker job** per shard — submitted to the persistent
//!   [`WorkerPool`], not spawned per query — runs
//!   the unchanged generic executor on each unit, encodes the survivors
//!   straight into its worker-resident
//!   [`FrameBuilder`](cheetah_net::FrameBuilder) arena, and
//!   streams the finished [`SurvivorBatch`] frames over a *bounded*
//!   channel (a full channel blocks the worker — the backpressure that
//!   stands in for sender pacing);
//! * the **master merge plane** (the calling thread again, once dispatch
//!   is done) parses frames zero-copy and folds the survivor slices
//!   into a [`MergeState`] as they arrive — no per-item re-decode into
//!   owned `MergeItem`s, no join barrier.
//!
//! Every timestamp is taken against one run-local epoch so the overlap —
//! merge work performed while the slowest worker was still computing —
//! can be read directly out of the event log afterwards.

use crate::pool::WorkerPool;
use bytes::Bytes;
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_db::{decompose_output, Cluster, DbQuery, MergeState, QueryOutput, ShardStats, Table};
use cheetah_net::{
    ExecBackend, ExecBreakdown, FaultProfile, MasterIngestModel, SimRng, SurvivorBatch,
    SwitchAction, SwitchFlow, WorkerFlow, MAX_BATCH_ITEMS,
};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::SpanContext;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a streamed Cheetah execution — the streaming sibling of
/// `cheetah_db::ShardedRun`, with the runtime's own telemetry on top.
#[derive(Debug, Clone)]
pub struct StreamedRun {
    /// Merged, normalized query output — equal to the barrier run's and
    /// the baseline's.
    pub output: QueryOutput,
    /// Phase breakdown. `master_seconds` already discounts
    /// `overlap_seconds` (merge work hidden behind still-running
    /// workers), so `completion_seconds` stays comparable with the
    /// barrier executor's.
    pub breakdown: ExecBreakdown,
    /// Switch statistics summed across every shard's per-round programs.
    pub switch_stats: ProgramStats,
    /// Per-shard accounting, rounds summed.
    pub per_shard: Vec<ShardStats>,
    /// Total merge-plane work: every `ingest_batch` plus the final
    /// `finish`, overlapped or not.
    pub merge_seconds: f64,
    /// Merge items per survivor batch this run framed at.
    pub batch_size: usize,
    /// Survivor batches the master ingested.
    pub batches: u64,
    /// Modelled wire bytes of those frames.
    pub batch_wire_bytes: u64,
    /// Input rounds the layout dispatched (1 for key-holistic queries).
    pub rounds: usize,
    /// The up-front plan, when the layout was planner-chosen.
    pub plan: Option<ShardPlan>,
    /// Control-plane rules of the largest per-shard program.
    pub rules: usize,
}

/// The streamed executor, implemented for [`Cluster`] —
/// `use cheetah_runtime::StreamedExecution` brings
/// `cluster.run_cheetah_streamed_resident(..)` into scope next to the
/// pooled barrier executor ([`PooledExecution`](crate::PooledExecution)).
pub trait StreamedExecution {
    /// Run `q` over a resident [`StreamLayout`]: workers prune their
    /// already-routed slices (`Arc` handles, no row is copied) on the
    /// persistent pool, frame the survivors into batches, and the master
    /// folds each batch into an incremental merge as it lands — no join
    /// barrier. Build the layout with [`route_once`](crate::route_once)
    /// (one round) or [`StreamLayout::from_units`] (any rounds), and run
    /// it as often as you like.
    ///
    /// Output equals `run_baseline`'s for every query shape — streaming
    /// changes *when* survivors reach the master, never *what* the query
    /// answers. A layout of several input rounds is refused with
    /// [`Error::KeyHolisticRounds`](cheetah_core::Error::KeyHolisticRounds)
    /// for a query whose merge is not routing-agnostic
    /// ([`DbQuery::merge_routing_agnostic`]): HAVING and JOIN need every
    /// row of a key inside one executor run.
    fn run_cheetah_streamed_resident(
        &self,
        q: &DbQuery,
        layout: &StreamLayout,
    ) -> cheetah_core::Result<StreamedRun>;
}

/// A fully-routed streamed input layout: which rows of which round land
/// on which shard, plus the knobs the run needs (batch size, channel
/// depth, ingest model, plan provenance, an optional faulty channel).
///
/// Produced by [`route_once`](crate::route_once) (one round) or
/// [`StreamLayout::from_units`]; consumed, repeatedly, by
/// [`StreamedExecution::run_cheetah_streamed_resident`].
#[derive(Clone)]
pub struct StreamLayout {
    /// `units[round][shard]` — the left-stream slice that shard prunes
    /// in that round.
    units: Vec<Vec<Arc<Table>>>,
    /// Co-partitioned right stream (binary queries), dispatched with
    /// round 0.
    right_units: Option<Vec<Arc<Table>>>,
    /// Rows routed per shard (authoritative, includes empty units).
    dispatched: Vec<u64>,
    batch_size: usize,
    channel_depth: usize,
    fault: Option<FaultSpec>,
    ingest: MasterIngestModel,
    decision: PlanDecision,
    plan: Option<ShardPlan>,
}

impl StreamLayout {
    /// Shard count of the layout.
    pub fn shards(&self) -> usize {
        self.dispatched.len()
    }

    /// Input rounds the dispatcher will walk.
    pub fn rounds(&self) -> usize {
        self.units.len()
    }

    /// Rows routed to each shard.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }

    /// Assemble a resident layout from already-routed slices, one entry
    /// of `units` per input round. [`route_once`](crate::route_once)
    /// wraps its slices this way as one round, so the pooled and the
    /// streamed executor share one routing pass; a caller that cuts the
    /// input into several row windows (one [`route_range`] call per
    /// window) gets a multi-round layout, which only routing-agnostic
    /// queries may run.
    ///
    /// `units[round][shard]` must be rectangular and non-empty: every
    /// round slices the input across the same shard set. The right
    /// stream of a binary query rides round 0. `batch` of `None` asks
    /// the ingest model for its suggested batch size
    /// ([`suggested_batch`](MasterIngestModel::suggested_batch));
    /// `channel_depth` of `None` likewise derives the in-flight frame
    /// budget from the model's link rates
    /// ([`suggested_depth`](MasterIngestModel::suggested_depth)).
    ///
    /// [`route_range`]: cheetah_db::route_range
    pub fn from_units(
        units: Vec<Vec<Arc<Table>>>,
        right_units: Option<Vec<Arc<Table>>>,
        ingest: MasterIngestModel,
        decision: PlanDecision,
        plan: Option<ShardPlan>,
        batch: Option<usize>,
        channel_depth: Option<usize>,
    ) -> StreamLayout {
        assert!(
            !units.is_empty() && !units[0].is_empty(),
            "a resident layout needs at least one round over at least one shard"
        );
        let shards = units[0].len();
        assert!(
            units.iter().chain(&right_units).all(|round| round.len() == shards),
            "every round, and the right stream, must slice across the same shard set"
        );
        let mut dispatched = vec![0u64; shards];
        for round in units.iter().chain(&right_units) {
            for (shard, t) in round.iter().enumerate() {
                dispatched[shard] += t.rows() as u64;
            }
        }
        let batch_size =
            batch.unwrap_or_else(|| ingest.suggested_batch(shards)).clamp(1, MAX_BATCH_ITEMS);
        let channel_depth =
            channel_depth.map_or_else(|| ingest.suggested_depth(shards), |d| d.max(1));
        StreamLayout {
            units,
            right_units,
            dispatched,
            batch_size,
            channel_depth,
            fault: None,
            ingest,
            decision,
            plan,
        }
    }

    /// The same layout with its worker→master frames crossing a seeded
    /// lossy channel: the §7.2 go-back-N/ACK machinery then runs for
    /// real on every execution of the layout.
    pub fn with_fault(mut self, fault: FaultSpec) -> StreamLayout {
        self.fault = Some(fault);
        self
    }
}

/// The streamed executor's faulty-channel mode: every survivor frame a
/// worker emits crosses a seeded lossy link (drops, single-octet
/// corruption, duplication), and the worker runs the §7.2 go-back-N
/// window over per-frame master ACKs, so the run only completes once
/// every frame has actually been merged. Attach it to a resident layout
/// with [`StreamLayout::with_fault`](crate::StreamLayout::with_fault).
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fault probabilities applied to each frame transmission.
    pub profile: FaultProfile,
    /// Seed of the per-shard fault streams (shard id is mixed in), so a
    /// lossy run is reproducible frame for frame.
    pub seed: u64,
    /// Go-back-N window in frames; `None` uses the resolved channel
    /// depth (the NIC-paced in-flight budget).
    pub window: Option<u64>,
    /// Retransmission timeout: how long a worker waits on an ACK before
    /// resending its unacked window.
    pub rto: Duration,
}

impl FaultSpec {
    /// A lossy channel with the given profile and seed, window derived
    /// from the channel depth and a CI-friendly 2 ms RTO.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        Self { profile, seed, window: None, rto: Duration::from_millis(2) }
    }

    /// The smoltcp-style harsh profile (15% drop + 15% corrupt).
    pub fn harsh(seed: u64) -> Self {
        Self::new(FaultProfile::harsh(), seed)
    }
}

/// One routed slice of one shard's input for one round. Units carry
/// `Arc` handles so a resident layout can re-dispatch the same slices
/// query after query without re-cloning a row.
struct WorkUnit {
    left: Arc<Table>,
    right: Option<Arc<Table>>,
}

/// What a shard worker hands back when its unit stream closes.
#[derive(Default)]
struct WorkerReport {
    stats: ShardStats,
    switch: ProgramStats,
    passes: u8,
    rules: usize,
    /// Seconds since the run epoch at which this worker went idle.
    finished_at: f64,
    /// Pruning backend the worker's unit runs actually executed on.
    backend: ExecBackend,
    /// Go-back-N resends this shard's flow needed (zero when lossless).
    retransmits: u64,
}

/// The live channels of a spawned worker plane: one unit stream per
/// shard in, survivor frames and end-of-stream reports out. Under a
/// faulty channel the master also holds one unbounded ACK sender per
/// shard (empty when lossless) — unbounded so acking never blocks the
/// merge plane behind a slow worker.
struct WorkerPlane {
    unit_txs: Vec<mpsc::Sender<WorkUnit>>,
    batch_rx: mpsc::Receiver<Bytes>,
    report_rx: mpsc::Receiver<(usize, cheetah_core::Result<WorkerReport>)>,
    ack_txs: Vec<mpsc::Sender<u64>>,
}

/// Submit one pool job per shard: each owns its unit stream plus cheap
/// clones of the cluster config and query, prunes every unit through the
/// unchanged generic executor, and frames the survivors out of its
/// worker-resident arena straight onto the bounded batch channel.
fn spawn_worker_plane(
    cluster: &Cluster,
    q: &DbQuery,
    layout: &StreamLayout,
    epoch: Instant,
) -> WorkerPlane {
    let (shards, batch_size, channel_depth) =
        (layout.shards(), layout.batch_size, layout.channel_depth);
    let fault = layout.fault.as_ref();
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Bytes>(channel_depth.max(1) * shards);
    let (report_tx, report_rx) = mpsc::channel::<(usize, cheetah_core::Result<WorkerReport>)>();
    let mut unit_txs = Vec::with_capacity(shards);
    let mut ack_txs = Vec::new();
    let window = fault.map(|f| f.window.unwrap_or(channel_depth.max(1) as u64).max(1));
    let pool = WorkerPool::global();
    for shard in 0..shards {
        let (unit_tx, unit_rx) = mpsc::channel::<WorkUnit>();
        unit_txs.push(unit_tx);
        let fault_lane = fault.map(|f| {
            let (ack_tx, ack_rx) = mpsc::channel::<u64>();
            ack_txs.push(ack_tx);
            (f.clone(), ack_rx)
        });
        let cluster = cluster.clone();
        let q = q.clone();
        let batch_tx = batch_tx.clone();
        let report_tx = report_tx.clone();
        let trace_ctx = SpanContext::current();
        pool.spawn(move |scratch| {
            let mut worker_span = trace_ctx.as_ref().map(|ctx| {
                let mut s = ctx.child("worker");
                s.attr("shard", shard);
                s
            });
            let mut rep = WorkerReport::default();
            let mut seq = 0u64;
            // Under a faulty channel, frames are buffered instead of sent
            // eagerly: the go-back-N window needs the whole flow (and its
            // length) so retransmitted frames can be replayed verbatim.
            let mut flow_frames: Vec<Bytes> = Vec::new();
            'units: for unit in unit_rx {
                let run = match cluster.run_cheetah(&q, &unit.left, unit.right.as_deref()) {
                    Ok(run) => run,
                    Err(e) => {
                        report_tx.send((shard, Err(e))).ok();
                        return;
                    }
                };
                rep.stats.rows +=
                    unit.left.rows() as u64 + unit.right.as_ref().map_or(0, |r| r.rows() as u64);
                rep.stats.worker_seconds += run.breakdown.worker_seconds;
                rep.stats.master_seconds += run.breakdown.master_seconds;
                rep.stats.worker_wire_bytes += run.breakdown.worker_wire_bytes;
                rep.stats.master_wire_bytes += run.breakdown.master_wire_bytes;
                rep.stats.entries_to_master += run.breakdown.entries_to_master;
                rep.stats.seen += run.switch_stats.seen;
                rep.stats.pruned += run.switch_stats.pruned;
                rep.switch.seen += run.switch_stats.seen;
                rep.switch.pruned += run.switch_stats.pruned;
                rep.switch.forwarded += run.switch_stats.forwarded;
                rep.passes = rep.passes.max(run.breakdown.passes);
                rep.rules = rep.rules.max(run.rules);
                rep.backend = run.breakdown.backend;
                let items = decompose_output(&q, run.output);
                for chunk in items.chunks(batch_size) {
                    // Encode each survivor once, straight into the
                    // frame arena — no per-item Bytes round-trip.
                    scratch.frames.begin(shard as u32, seq);
                    for item in chunk {
                        scratch.frames.push_with(|b| item.encode_into(b));
                    }
                    let frame = scratch.frames.finish();
                    seq += 1;
                    if fault_lane.is_some() {
                        flow_frames.push(frame);
                    } else if batch_tx.send(frame).is_err() {
                        // The merge plane hung up: pruning further
                        // units is pure waste.
                        break 'units;
                    }
                }
            }
            if let Some((f, ack_rx)) = &fault_lane {
                let stream_span = worker_span.as_ref().map(|s| s.child("stream"));
                rep.retransmits = stream_lossy(
                    shard,
                    &flow_frames,
                    f,
                    window.expect("fault mode resolves a window"),
                    &batch_tx,
                    ack_rx,
                );
                if let Some(mut s) = stream_span {
                    s.attr("frames", flow_frames.len());
                    s.attr("retransmits", rep.retransmits);
                }
                if let Some(ctx) = trace_ctx.as_ref() {
                    // The fabric's recovery work lands in the owning
                    // session's registry, attributed via the trace.
                    ctx.trace().registry().counter("net.retransmits").add(rep.retransmits);
                }
            }
            rep.finished_at = epoch.elapsed().as_secs_f64();
            if let Some(s) = worker_span.as_mut() {
                s.attr("rows", rep.stats.rows);
                s.attr("entries_to_master", rep.stats.entries_to_master);
            }
            drop(worker_span);
            report_tx.send((shard, Ok(rep))).ok();
        });
    }
    // The master's recv loops must end when the last worker does — the
    // only live senders are the ones captured by the jobs.
    WorkerPlane { unit_txs, batch_rx, report_rx, ack_txs }
}

/// Drive one shard's buffered frames to the master across the seeded
/// lossy channel, under the §7.2 go-back-N window: every transmission
/// draws its faults (drop / single-bit corruption / duplication) from
/// the shard's own deterministic stream, per-frame ACKs advance the
/// window, and an RTO with no ACK resends everything unacked. Returns
/// the retransmission count once the master has acknowledged the whole
/// flow.
fn stream_lossy(
    shard: usize,
    frames: &[Bytes],
    fault: &FaultSpec,
    window: u64,
    batch_tx: &mpsc::SyncSender<Bytes>,
    ack_rx: &mpsc::Receiver<u64>,
) -> u64 {
    let mut rng = SimRng::new(fault.seed ^ ((shard as u64) << 8));
    let mut flow = WorkerFlow::new(shard as u32, frames.len() as u64, window);
    // Returns false when the merge plane hung up — sending further is
    // pure waste.
    let transmit = |seq: u64, rng: &mut SimRng| -> bool {
        let frame = &frames[(seq - 1) as usize];
        if rng.next_f64() < fault.profile.drop_prob {
            // Lost on the wire; the RTO recovers it.
            return true;
        }
        let bytes = if rng.next_f64() < fault.profile.corrupt_prob {
            // One flipped bit of one octet — the master's frame checksum
            // rejects it, it earns no ACK, and go-back-N resends it.
            let mut m = frame.to_vec();
            let i = rng.below(m.len());
            m[i] ^= 1 << rng.below(8);
            Bytes::from(m)
        } else {
            frame.clone()
        };
        let dup = fault.profile.dup_prob > 0.0 && rng.next_f64() < fault.profile.dup_prob;
        if batch_tx.send(bytes.clone()).is_err() {
            return false;
        }
        !(dup && batch_tx.send(bytes).is_err())
    };
    while !flow.all_acked() {
        for s in flow.sendable() {
            if !transmit(s, &mut rng) {
                return flow.retransmissions;
            }
        }
        match ack_rx.recv_timeout(fault.rto) {
            Ok(s) => {
                flow.on_ack(s);
                // Drain whatever else is queued before refilling the
                // window — cheaper than one send per ack round-trip.
                while let Ok(s) = ack_rx.try_recv() {
                    flow.on_ack(s);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                for s in flow.on_timeout() {
                    if !transmit(s, &mut rng) {
                        return flow.retransmissions;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return flow.retransmissions,
        }
    }
    flow.retransmissions
}

/// The master merge plane: fold survivor slices as frames land, then
/// collect the per-shard end-of-stream reports. The batch parses
/// zero-copy (offsets into the frame's arena) and the merge folds each
/// slice directly — decode work happens exactly once, here, per
/// survivor. `unit_txs` must already be dropped (or the recv loop never
/// ends).
fn drain_merge_plane(
    q: &DbQuery,
    layout: &StreamLayout,
    epoch: Instant,
    plane: WorkerPlane,
) -> cheetah_core::Result<StreamedRun> {
    let WorkerPlane { unit_txs, batch_rx, report_rx, ack_txs } = plane;
    debug_assert!(unit_txs.is_empty(), "dispatch must close the unit streams");
    drop(unit_txs);
    // The merge plane runs on the submitting thread, so the session's
    // entered `execute` span (if any) is directly visible here.
    let mut merge_span = SpanContext::current().map(|tc| tc.child("merge"));
    let shards = layout.shards();
    let faulty = !ack_txs.is_empty();
    let mut state = MergeState::new(q);
    let mut merge_events: Vec<(f64, f64)> = Vec::new();
    let mut batches = 0u64;
    let mut batch_wire_bytes = 0u64;
    // Per-shard §7.2 switch sequencing state (faulty channel only): the
    // in-process merge plane doubles as the switch's reliability role.
    let mut switches: Vec<SwitchFlow> = (0..shards).map(|_| SwitchFlow::new()).collect();
    while let Ok(frame) = batch_rx.recv() {
        let start = epoch.elapsed().as_secs_f64();
        if faulty {
            // A corrupted frame fails the checksum here, earns no ACK,
            // and the worker's go-back-N timeout resends it.
            if let Ok(batch) = SurvivorBatch::parse(frame) {
                let shard = batch.shard as usize;
                match switches[shard].classify(batch.seq + 1) {
                    // A gap: an earlier frame was lost. Dropping keeps
                    // the switch stream-ordered; the resend fills it.
                    SwitchAction::DropAhead => {}
                    SwitchAction::Process | SwitchAction::ForwardStale => {
                        // Retransmits that already merged dedup here
                        // (Ok(false)); either way the sender hears an
                        // ACK so its window advances.
                        if state.ingest_survivor_batch(&batch).expect("merge item round-trips") {
                            batch_wire_bytes += batch.wire_bytes();
                            batches += 1;
                        }
                        ack_txs[shard].send(batch.seq + 1).ok();
                    }
                }
            }
        } else {
            let batch = SurvivorBatch::parse(frame).expect("in-memory survivor frame round-trips");
            batch_wire_bytes += batch.wire_bytes();
            batches += 1;
            state.ingest_survivor_batch(&batch).expect("merge item round-trips");
        }
        merge_events.push((start, epoch.elapsed().as_secs_f64() - start));
    }
    drop(ack_txs);
    let finish_start = epoch.elapsed().as_secs_f64();
    let output = state.finish();
    let finish_seconds = epoch.elapsed().as_secs_f64() - finish_start;

    // Every batch sender has dropped, so every job has finished (or
    // errored): the reports are all in flight already.
    let mut reports: Vec<Option<WorkerReport>> = (0..shards).map(|_| None).collect();
    for _ in 0..shards {
        let (shard, rep) = report_rx.recv().expect("shard worker panicked");
        reports[shard] = Some(rep?);
    }
    let reports: Vec<WorkerReport> =
        reports.into_iter().map(|r| r.expect("every shard reported")).collect();

    if let Some(s) = merge_span.as_mut() {
        s.attr("shards", shards);
        s.attr("batches", batches);
    }
    drop(merge_span);

    let fold = Fold { output, reports, merge_events, finish_seconds, batches, batch_wire_bytes };
    Ok(assemble(fold, layout))
}

impl StreamedExecution for Cluster {
    fn run_cheetah_streamed_resident(
        &self,
        q: &DbQuery,
        layout: &StreamLayout,
    ) -> cheetah_core::Result<StreamedRun> {
        if layout.rounds() > 1 && !q.merge_routing_agnostic() {
            return Err(cheetah_core::Error::KeyHolisticRounds { rounds: layout.rounds() });
        }
        let epoch = Instant::now();
        let mut plane = spawn_worker_plane(self, q, layout, epoch);
        // Dispatch is `Arc` clones of resident slices — no routing, no
        // row movement.
        for (round, slices) in layout.units.iter().enumerate() {
            for (shard, l) in slices.iter().enumerate() {
                let r = (round == 0)
                    .then(|| layout.right_units.as_ref().map(|v| Arc::clone(&v[shard])))
                    .flatten();
                if l.rows() + r.as_ref().map_or(0, |t| t.rows()) == 0 {
                    continue;
                }
                plane.unit_txs[shard].send(WorkUnit { left: Arc::clone(l), right: r }).ok();
            }
        }
        plane.unit_txs.clear();
        drain_merge_plane(q, layout, epoch, plane)
    }
}

/// Everything the merge plane produced, before accounting.
struct Fold {
    output: QueryOutput,
    reports: Vec<WorkerReport>,
    merge_events: Vec<(f64, f64)>,
    finish_seconds: f64,
    batches: u64,
    batch_wire_bytes: u64,
}

/// Turn the raw fold into the run's accounting: the overlap is the merge
/// work that happened before the slowest worker went idle.
fn assemble(fold: Fold, layout: &StreamLayout) -> StreamedRun {
    let Fold { output, reports, merge_events, finish_seconds, batches, batch_wire_bytes } = fold;
    let last_worker = reports.iter().map(|r| r.finished_at).fold(0.0, f64::max);
    let ingest_seconds: f64 = merge_events.iter().map(|(_, d)| d).sum();
    let overlap_seconds: f64 = merge_events
        .iter()
        .map(|&(start, dur)| (last_worker.min(start + dur) - start).max(0.0))
        .sum();
    let merge_seconds = ingest_seconds + finish_seconds;

    let mut per_shard: Vec<ShardStats> = reports.iter().map(|r| r.stats).collect();
    for (s, rows) in layout.dispatched.iter().enumerate() {
        // Rows routed to a shard whose every unit was empty never reach a
        // worker; the layout's count is authoritative.
        per_shard[s].rows = *rows;
    }
    let switch_stats = reports.iter().fold(ProgramStats::default(), |mut acc, r| {
        acc.seen += r.switch.seen;
        acc.pruned += r.switch.pruned;
        acc.forwarded += r.switch.forwarded;
        acc
    });
    let entries_per_shard: Vec<u64> = per_shard.iter().map(|s| s.entries_to_master).collect();

    let breakdown = ExecBreakdown {
        // Workers run concurrently; the slowest shard bounds the phase.
        worker_seconds: per_shard.iter().map(|s| s.worker_seconds).fold(0.0, f64::max),
        // The master is one machine: per-slice completions plus the merge
        // plane — minus the part of the merge hidden behind workers.
        master_seconds: per_shard.iter().map(|s| s.master_seconds).sum::<f64>() + merge_seconds
            - overlap_seconds,
        worker_wire_bytes: per_shard.iter().map(|s| s.worker_wire_bytes).max().unwrap_or(0),
        master_wire_bytes: per_shard.iter().map(|s| s.master_wire_bytes).sum(),
        entries_to_master: entries_per_shard.iter().sum(),
        passes: reports.iter().map(|r| r.passes).max().unwrap_or(1),
        shards: layout.shards() as u32,
        master_ingest_seconds: layout.ingest.blocking_latency_sharded(&entries_per_shard),
        plan: Some(layout.decision),
        overlap_seconds,
        // All workers clone one cluster; any report speaks for the run.
        backend: reports.first().map(|r| r.backend).unwrap_or_default(),
        retransmits: reports.iter().map(|r| r.retransmits).sum(),
        ..ExecBreakdown::default()
    };
    let rules = reports.iter().map(|r| r.rules).max().unwrap_or(0);
    StreamedRun {
        output,
        breakdown,
        switch_stats,
        per_shard,
        merge_seconds,
        batch_size: layout.batch_size,
        batches,
        batch_wire_bytes,
        rounds: layout.rounds(),
        plan: layout.plan.clone(),
        rules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{route_once, RoutedLayout, Sharding};
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{DataType, ShardSpec, TableBuilder, Value};

    fn table(rows: usize, parts: usize) -> Table {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ],
            rows.div_ceil(parts).max(1),
        );
        let mut x = 1u64;
        for i in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b.push_row(vec![
                Value::Str(format!("key-{}", x % 37)),
                Value::Int((x % 10_000) as i64),
                Value::Int((i % 500) as i64),
            ]);
        }
        b.build()
    }

    fn hash_layout(q: &DbQuery, t: &Table, shards: usize) -> RoutedLayout {
        let spec = ShardSpec::new(shards, ShardPartitioner::Hash);
        route_once(q, t, None, Cluster::default().tuning.seed, Sharding::Fixed(spec), None)
    }

    /// `routed`'s slices as a one-round layout with a pinned batch size.
    fn rebatched(routed: &RoutedLayout, batch: usize) -> StreamLayout {
        let (ingest, decision) = (routed.ingest, routed.decision);
        StreamLayout::from_units(
            vec![routed.left.clone()],
            None,
            ingest,
            decision,
            None,
            Some(batch),
            None,
        )
    }

    #[test]
    fn from_units_rebuilds_a_layout_that_runs_identically() {
        // A layout rebuilt from the same slices must be indistinguishable
        // from the routed one at run time.
        let cluster = Cluster::default();
        let t = table(1_800, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let routed = hash_layout(&q, &t, 4);
        let layout = &routed.stream;
        let rebuilt = StreamLayout::from_units(
            layout.units.clone(),
            layout.right_units.clone(),
            layout.ingest,
            layout.decision,
            layout.plan.clone(),
            Some(layout.batch_size),
            Some(layout.channel_depth),
        );
        assert_eq!(rebuilt.shards(), layout.shards());
        assert_eq!(rebuilt.rounds(), layout.rounds());
        assert_eq!(rebuilt.dispatched(), layout.dispatched());
        let first = cluster.run_cheetah_streamed_resident(&routed.query, layout).unwrap();
        let again = cluster.run_cheetah_streamed_resident(&routed.query, &rebuilt).unwrap();
        assert_eq!(first.output, again.output);
        assert_eq!(first.output, cluster.run_baseline(&q, &t, None).output);
        assert_eq!(first.breakdown.entries_to_master, again.breakdown.entries_to_master);
        // Omitting the hints falls back to the ingest model: suggested
        // batch size, NIC-paced channel depth.
        let units = || layout.units.clone();
        let suggested = StreamLayout::from_units(
            units(),
            None,
            layout.ingest,
            layout.decision,
            None,
            None,
            None,
        );
        assert!(suggested.batch_size >= 1);
        assert_eq!(suggested.channel_depth, layout.ingest.suggested_depth(4));
        // A pinned depth of zero still clamps to a workable channel.
        let clamped = StreamLayout::from_units(
            units(),
            None,
            layout.ingest,
            layout.decision,
            None,
            None,
            Some(0),
        );
        assert_eq!(clamped.channel_depth, 1, "channel depth is clamped to at least 1");
    }

    #[test]
    fn a_faulty_layout_answers_exactly_run_after_run() {
        // 15% drop + 15% corruption + duplication on every survivor
        // frame: the §7.2 machinery (go-back-N resends, switch
        // sequencing, merge-plane dedup) must deliver the baseline
        // answer on every run of the same layout, and the resends must
        // show up in the breakdown.
        let cluster = Cluster::default();
        let t = table(1_500, 3);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let base = cluster.run_baseline(&q, &t, None);
        let routed = hash_layout(&q, &t, 3);
        // Many small frames → many fault draws.
        let lossy = rebatched(&routed, 4).with_fault(FaultSpec::harsh(0xC0FFEE));
        for _ in 0..2 {
            let run = cluster.run_cheetah_streamed_resident(&routed.query, &lossy).unwrap();
            assert_eq!(base.output, run.output);
            assert!(run.breakdown.retransmits > 0, "a harsh channel forces resends");
        }
        assert_eq!(routed.run_streamed(&cluster).unwrap().breakdown.retransmits, 0);
    }

    #[test]
    fn batch_size_follows_the_fan_in_curve_unless_pinned() {
        let cluster = Cluster::default();
        let t = table(800, 2);
        let q = DbQuery::Distinct { col: 0 };
        let routed = hash_layout(&q, &t, 4);
        let run = routed.run_streamed(&cluster).unwrap();
        assert_eq!(run.batch_size, routed.ingest.suggested_batch(4));
        let pinned = rebatched(&routed, 7);
        let run = cluster.run_cheetah_streamed_resident(&routed.query, &pinned).unwrap();
        assert_eq!(run.batch_size, 7);
        // 37 distinct survivors at batch 7 → ceil division worth of frames
        // per emitting shard; at least more frames than the unpinned run.
        assert!(run.batches >= 4, "tiny batches must yield multiple frames: {}", run.batches);
    }

    #[test]
    fn fault_spec_constructors_pick_sane_knobs() {
        let harsh = FaultSpec::harsh(7);
        assert_eq!(harsh.seed, 7);
        assert!(harsh.profile.drop_prob > 0.0 && harsh.profile.corrupt_prob > 0.0);
        assert!(harsh.window.is_none(), "window follows the resolved channel depth");
        assert!(harsh.rto > Duration::ZERO);
        let mild = FaultSpec::new(FaultProfile { drop_prob: 0.01, ..FaultProfile::lossless() }, 3);
        assert_eq!(mild.profile.corrupt_prob, 0.0);
    }
}
