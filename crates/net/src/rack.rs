//! The rack simulator: workers → switch → master over lossy links.
//!
//! A seeded discrete-event simulation of the paper's rack topology: `W`
//! workers with per-worker uplinks into one Cheetah switch, one downlink
//! to the master, and per-worker ACK return paths, every link driven by a
//! [`FaultProfile`] injecting drops, single-octet corruption,
//! duplication, and jitter-induced reordering.
//!
//! The three roles run the `§7.2` state machines from
//! [`crate::reliability`]:
//!
//! * **workers** run a go-back-N [`WorkerFlow`] window over their flow,
//!   retransmitting on timeout, and close it with a FIN;
//! * **the switch** runs a [`SwitchFlow`] per flow: it verifies the
//!   checksum (as a real switch verifies the FCS), processes in-order
//!   units (`Y = X+1`), forwards stale retransmissions unprocessed
//!   (`Y ≤ X`), and drops gaps (`Y > X+1`);
//! * **the master** runs a [`MasterFlow`] per flow, deduplicates by
//!   sequence, ACKs every valid unit, and hands each *new* one to the
//!   caller's sink.
//!
//! What one data packet carries is the only thing that differs between
//! the paper's channel and the streamed runtime's, so the simulator is
//! generic over it ([`Payload`]):
//!
//! * **entries** ([`DataPacket`], built by [`RackSim::entries`]) — one
//!   value tuple per packet. The switch runs a pruning function on each
//!   entry it processes and ACKs what it prunes; otherwise a worker could
//!   not tell a pruned entry from a lost one.
//! * **frames** ([`SurvivorBatch`], built by [`RackSim::frames`]) — the
//!   streamed runtime's columnar survivor frames. They are already
//!   post-pruning, so the switch only sequences and forwards them.
//!
//! The headline property: under any loss pattern, the units the master
//! ends up with are a **superset of the unpruned units and a subset of
//! all units** — which, by the pruning contract, yields exactly the same
//! query output as a lossless run. Everything is seeded: the same config
//! and streams produce a bit-identical [`RackReport`] and delivery order,
//! retransmit counts included, which keeps lossy CI failures
//! reproducible.

use crate::channel::{Arrival, FaultProfile, Link, SimTime};
use crate::reliability::{MasterFlow, SwitchAction, SwitchFlow, WorkerFlow};
use crate::stream::SurvivorBatch;
use crate::wire::{encapsulated_bytes, AckPacket, AckSource, DataPacket, Packet};
use bytes::Bytes;
use cheetah_switch::Verdict;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of a rack run.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Per-worker uplink rate (bits/second).
    pub uplink_bps: f64,
    /// Switch→master downlink rate (bits/second).
    pub downlink_bps: f64,
    /// One-way link latency in nanoseconds.
    pub latency_ns: SimTime,
    /// Fault profile applied to every link.
    pub faults: FaultProfile,
    /// Worker send window in units. `None` derives the window from the
    /// uplink's bandwidth-delay product (see [`bdp_window`]).
    pub window: Option<u64>,
    /// Retransmission timeout in nanoseconds.
    pub rto_ns: SimTime,
    /// Simulation time limit (safety stop).
    pub max_ns: SimTime,
    /// RNG seed (drives every link's fault draws).
    pub seed: u64,
}

impl Default for RackConfig {
    fn default() -> Self {
        Self {
            uplink_bps: 10e9,
            downlink_bps: 10e9,
            latency_ns: 1_000,
            faults: FaultProfile::lossless(),
            window: None,
            rto_ns: 2_000_000,       // 2 ms
            max_ns: 120_000_000_000, // 2 minutes of simulated time
            seed: 0xFAB,
        }
    }
}

/// A send window sized to the link: how many frames of `frame_bytes`
/// fit in `rate_bps × rtt_ns` of flight, clamped to `[4, 1024]`. This is
/// the frame-count analogue of the NIC-paced channel depth in
/// [`crate::ingest::MasterIngestModel::suggested_depth`].
pub fn bdp_window(rate_bps: f64, rtt_ns: SimTime, frame_bytes: u64) -> u64 {
    let bits_in_flight = rate_bps * rtt_ns as f64 / 1e9;
    let frames = (bits_in_flight / (8.0 * frame_bytes.max(1) as f64)).ceil() as u64;
    frames.clamp(4, 1024)
}

/// Outcome of a rack run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RackReport {
    /// Simulated completion time in seconds (all flows FIN-acknowledged).
    pub sim_seconds: f64,
    /// Unique units the master accepted and handed to the sink.
    pub delivered: u64,
    /// Entries the switch pruned and ACKed (always 0 for frames).
    pub switch_acks: u64,
    /// Data packets retransmitted by workers.
    pub retransmissions: u64,
    /// Packets the switch dropped due to a sequence gap (`Y > X+1`).
    pub dropped_ahead: u64,
    /// Retransmissions the switch forwarded without processing (`Y ≤ X`).
    pub forwarded_stale: u64,
    /// Packets discarded on checksum/parse failure (corruption casualties).
    pub malformed: u64,
    /// Duplicate units the master discarded (retransmit overlap plus
    /// link-level duplication).
    pub duplicates: u64,
    /// Unique payload bits delivered per simulated second.
    pub goodput_bps: f64,
    /// Did the run complete before `max_ns`?
    pub completed: bool,
}

/// What one data packet of a flow carries, as the switch and the master
/// read it off the wire.
pub trait Payload: Sized {
    /// Parse `bytes` as one data unit; `None` when they are not one (a
    /// FIN, or bytes the checksum rejects).
    fn parse(bytes: &Bytes) -> Option<Self>;
    /// The unit's flow: the index of the worker that sent it.
    fn flow(&self) -> u32;
    /// The unit's sequence number as the `§7.2` protocol counts it, from 1.
    fn seq(&self) -> u64;
}

impl Payload for DataPacket {
    fn parse(bytes: &Bytes) -> Option<Self> {
        match Packet::parse(bytes.clone()) {
            Ok(Packet::Data(d)) => Some(d),
            _ => None,
        }
    }

    fn flow(&self) -> u32 {
        self.fid
    }

    fn seq(&self) -> u64 {
        self.seq
    }
}

impl Payload for SurvivorBatch {
    fn parse(bytes: &Bytes) -> Option<Self> {
        SurvivorBatch::parse(bytes.clone()).ok()
    }

    fn flow(&self) -> u32 {
        self.shard
    }

    /// Frames count from 0; the protocol counts from 1.
    fn seq(&self) -> u64 {
        self.seq + 1
    }
}

/// A link a transmission crosses, named by where it lands.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Worker `w`'s uplink into the switch.
    Up(usize),
    /// The switch→master downlink.
    Down,
    /// The ACK return path to worker `w`.
    Back(usize),
}

#[derive(Debug)]
enum Event {
    /// Bytes arriving at the far end of a hop.
    Arrive(Hop, Bytes),
    /// Retransmission timer for worker `w`, valid only at `epoch`.
    Timer(usize, u64),
}

struct HeapItem {
    at: SimTime,
    tie: u64,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tie).cmp(&(other.at, other.tie))
    }
}

/// The rack's links and the event queue their arrivals land in. Ties in
/// time pop in push order.
struct Net {
    uplinks: Vec<Link>,
    downlink: Link,
    ack_links: Vec<Link>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    tie: u64,
}

impl Net {
    fn new(cfg: &RackConfig, workers: usize) -> Self {
        let link = |bps, seed| Link::new(bps, cfg.latency_ns, cfg.faults, seed);
        Self {
            uplinks: (0..workers)
                .map(|w| link(cfg.uplink_bps, cfg.seed ^ ((w as u64) << 8)))
                .collect(),
            downlink: link(cfg.downlink_bps, cfg.seed ^ 0xD0_117),
            ack_links: (0..workers)
                .map(|w| link(cfg.downlink_bps, cfg.seed ^ 0xACC ^ ((w as u64) << 16)))
                .collect(),
            heap: BinaryHeap::new(),
            tie: 0,
        }
    }

    fn push(&mut self, at: SimTime, event: Event) {
        self.tie += 1;
        self.heap.push(Reverse(HeapItem { at, tie: self.tie, event }));
    }

    /// Transmit `bytes` across `hop` at `now`, queueing every copy that
    /// arrives.
    fn send(&mut self, hop: Hop, now: SimTime, bytes: Bytes) {
        let link = match hop {
            Hop::Up(w) => &mut self.uplinks[w],
            Hop::Down => &mut self.downlink,
            Hop::Back(w) => &mut self.ack_links[w],
        };
        let wire = encapsulated_bytes(bytes.len());
        for Arrival { at, bytes } in link.transmit(now, bytes, wire) {
            self.push(at, Event::Arrive(hop, bytes));
        }
    }
}

/// What reached the switch or the master.
enum Rx<U> {
    Unit(U),
    Fin(u32),
    /// Corrupted, or not a packet a worker sends.
    Malformed,
}

fn receive<U: Payload>(bytes: &Bytes) -> Rx<U> {
    if let Some(unit) = U::parse(bytes) {
        return Rx::Unit(unit);
    }
    match Packet::parse(bytes.clone()) {
        Ok(Packet::Fin { fid, .. }) => Rx::Fin(fid),
        _ => Rx::Malformed,
    }
}

fn ack(w: usize, seq: u64, source: AckSource) -> Bytes {
    Packet::Ack(AckPacket { fid: w as u32, seq, source }).emit()
}

/// The simulator: one stream of pre-encoded units per worker (worker `w`
/// owns flow `w`), carried over the faulty rack to a master-side sink.
pub struct RackSim<'a, U> {
    cfg: RackConfig,
    /// `streams[w][seq - 1]`: unit `seq` of flow `w`, encoded.
    streams: Vec<Vec<Bytes>>,
    /// The switch's verdict on each unit it processes.
    verdict: Box<dyn FnMut(&U) -> Verdict + 'a>,
}

impl<'a> RackSim<'a, DataPacket> {
    /// A rack carrying entries: `streams[w][i]` is the value tuple of
    /// entry `i + 1` of flow `w`, and the switch runs
    /// `pruner(fid, values)` on every entry it processes, ACKing the ones
    /// it prunes.
    ///
    /// # Panics
    /// Panics if an entry holds more than [`crate::MAX_VALUES`] values.
    pub fn entries(
        cfg: RackConfig,
        streams: Vec<Vec<Vec<u64>>>,
        mut pruner: impl FnMut(u32, &[u64]) -> Verdict + 'a,
    ) -> Self {
        let streams = streams
            .into_iter()
            .zip(0u32..)
            .map(|(stream, fid)| {
                (1u64..)
                    .zip(stream)
                    .map(|(seq, values)| Packet::Data(DataPacket { fid, seq, values }).emit())
                    .collect()
            })
            .collect();
        Self { cfg, streams, verdict: Box::new(move |d| pruner(d.fid, &d.values)) }
    }
}

impl RackSim<'static, SurvivorBatch> {
    /// A rack carrying survivor frames. Stream `w` is shard `w`'s flow:
    /// each frame must parse as a [`SurvivorBatch`] with `shard == w` and
    /// `seq` equal to its position in the stream — the invariant the
    /// streamed runtime's framing already upholds.
    ///
    /// # Panics
    /// Panics if a stream violates that invariant (a harness bug, not a
    /// runtime condition).
    pub fn frames(cfg: RackConfig, streams: Vec<Vec<Bytes>>) -> Self {
        for (w, stream) in streams.iter().enumerate() {
            for (i, frame) in stream.iter().enumerate() {
                let b = SurvivorBatch::parse(frame.clone()).expect("stream frame must parse");
                assert_eq!(b.shard as usize, w, "frame shard must match stream index");
                assert_eq!(b.seq as usize, i, "frame seq must match stream position");
            }
        }
        Self { cfg, streams, verdict: Box::new(|_| Verdict::Forward) }
    }
}

impl<U: Payload> RackSim<'_, U> {
    /// Run to completion (or the time limit), handing every unique unit
    /// the master accepts to `sink` in arrival order.
    pub fn run(self, mut sink: impl FnMut(U)) -> RackReport {
        let RackSim { cfg, streams, mut verdict } = self;
        let w_count = streams.len();
        let window = cfg.window.unwrap_or_else(|| {
            // Size the window to the uplink BDP of a typical unit.
            let units: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let bytes: u64 = streams.iter().flatten().map(|b| encapsulated_bytes(b.len())).sum();
            let avg = bytes.checked_div(units).unwrap_or(1500);
            bdp_window(cfg.uplink_bps, 2 * cfg.latency_ns, avg)
        });

        let mut net = Net::new(&cfg, w_count);
        let mut workers: Vec<WorkerFlow> = streams
            .iter()
            .enumerate()
            .map(|(w, s)| WorkerFlow::new(w as u32, s.len() as u64, window))
            .collect();
        let mut fin_sent = vec![false; w_count];
        let mut fin_acked = vec![false; w_count];
        let mut switch_flows: Vec<SwitchFlow> = (0..w_count).map(|_| SwitchFlow::new()).collect();
        let mut master_flows: Vec<MasterFlow> =
            (0..w_count).map(|_| MasterFlow::default()).collect();
        let mut report = RackReport::default();
        let mut delivered_payload_bytes = 0u64;

        let send_data = |net: &mut Net, w: usize, now: SimTime, seqs: Vec<u64>| {
            for seq in seqs {
                net.send(Hop::Up(w), now, streams[w][(seq - 1) as usize].clone());
            }
        };
        let send_fin = |net: &mut Net, w: usize, now: SimTime, total: u64| {
            net.send(Hop::Up(w), now, Packet::Fin { fid: w as u32, last_seq: total }.emit());
        };

        // Initial sends.
        for (w, worker) in workers.iter_mut().enumerate() {
            send_data(&mut net, w, 0, worker.sendable());
            net.push(cfg.rto_ns, Event::Timer(w, worker.timer_epoch));
        }

        let mut now: SimTime = 0;
        while let Some(Reverse(item)) = net.heap.pop() {
            now = item.at;
            if now > cfg.max_ns {
                break;
            }
            match item.event {
                Event::Arrive(Hop::Up(_), bytes) => match receive::<U>(&bytes) {
                    Rx::Unit(unit) => {
                        let w = unit.flow() as usize;
                        if w >= w_count {
                            continue;
                        }
                        match switch_flows[w].classify(unit.seq()) {
                            SwitchAction::Process => match verdict(&unit) {
                                Verdict::Prune => {
                                    report.switch_acks += 1;
                                    let pruned = ack(w, unit.seq(), AckSource::SwitchPruned);
                                    net.send(Hop::Back(w), now, pruned);
                                }
                                Verdict::Forward => net.send(Hop::Down, now, bytes),
                            },
                            SwitchAction::ForwardStale => {
                                report.forwarded_stale += 1;
                                net.send(Hop::Down, now, bytes);
                            }
                            SwitchAction::DropAhead => report.dropped_ahead += 1,
                        }
                    }
                    // FINs pass through the switch unmodified.
                    Rx::Fin(_) => net.send(Hop::Down, now, bytes),
                    Rx::Malformed => report.malformed += 1,
                },
                Event::Arrive(Hop::Down, bytes) => match receive::<U>(&bytes) {
                    Rx::Unit(unit) => {
                        let (w, seq) = (unit.flow() as usize, unit.seq());
                        if w >= w_count {
                            continue;
                        }
                        if master_flows[w].on_data(seq) {
                            report.delivered += 1;
                            delivered_payload_bytes += bytes.len() as u64;
                            sink(unit);
                        }
                        net.send(Hop::Back(w), now, ack(w, seq, AckSource::Master));
                    }
                    Rx::Fin(fid) => {
                        let w = fid as usize;
                        if w >= w_count {
                            continue;
                        }
                        master_flows[w].fin_seen = true;
                        net.send(Hop::Back(w), now, Packet::FinAck { fid }.emit());
                    }
                    // Corrupted past the switch: no ACK, so the worker's
                    // retransmission arrives as ForwardStale.
                    Rx::Malformed => report.malformed += 1,
                },
                Event::Arrive(Hop::Back(w), bytes) => match Packet::parse(bytes) {
                    Ok(Packet::Ack(a)) if a.fid as usize == w => {
                        if workers[w].on_ack(a.seq) {
                            // Window advanced: send fresh packets.
                            send_data(&mut net, w, now, workers[w].sendable());
                            net.push(now + cfg.rto_ns, Event::Timer(w, workers[w].timer_epoch));
                        }
                        if workers[w].all_acked() && !fin_sent[w] {
                            fin_sent[w] = true;
                            send_fin(&mut net, w, now, workers[w].total());
                            net.push(now + cfg.rto_ns, Event::Timer(w, workers[w].timer_epoch));
                        }
                    }
                    Ok(Packet::FinAck { fid }) if fid as usize == w => {
                        fin_acked[w] = true;
                        if fin_acked.iter().all(|&f| f) {
                            report.completed = true;
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => report.malformed += 1,
                },
                Event::Timer(w, epoch) => {
                    if fin_acked[w] || epoch != workers[w].timer_epoch {
                        continue; // stale timer
                    }
                    if workers[w].all_acked() {
                        // Data done but FIN unacked: (re)send the FIN. This
                        // also first sends the FIN of an empty flow.
                        fin_sent[w] = true;
                        send_fin(&mut net, w, now, workers[w].total());
                    } else {
                        send_data(&mut net, w, now, workers[w].on_timeout());
                    }
                    net.push(now + cfg.rto_ns, Event::Timer(w, workers[w].timer_epoch));
                }
            }
        }

        report.sim_seconds = now as f64 / 1e9;
        report.retransmissions = workers.iter().map(|w| w.retransmissions).sum();
        report.duplicates = master_flows.iter().map(|m| m.duplicates).sum();
        if report.sim_seconds > 0.0 {
            report.goodput_bps = delivered_payload_bytes as f64 * 8.0 / report.sim_seconds;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::emit_batch;
    use std::collections::HashSet;

    /// The payload unit a case runs over.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Entries,
        Frames,
    }

    /// One run's report and its deliveries in arrival order, each as
    /// `(flow, position in the flow's stream)`.
    struct Run {
        report: RackReport,
        seen: Vec<(u32, u64)>,
    }

    /// A table row: one scenario, run over both payload units. Every run
    /// must complete and deliver each unit at most once, including every
    /// unit the switch does not prune; `check` adds the scenario's own
    /// assertions.
    struct Case {
        name: &'static str,
        workers: u32,
        count: u64,
        /// Entry values the switch prunes. Frames are never pruned.
        prune: fn(u64) -> bool,
        /// One config per run, each built from [`Kind::base`].
        runs: &'static [fn(RackConfig) -> RackConfig],
        check: fn(&[Run]),
    }

    /// Entry `i` of flow `w` carries the one value `w << 32 | i`.
    fn entry_value(w: u32, i: u64) -> u64 {
        u64::from(w) << 32 | i
    }

    fn faults(drop_prob: f64, corrupt_prob: f64, dup_prob: f64) -> FaultProfile {
        FaultProfile { drop_prob, corrupt_prob, dup_prob, ..FaultProfile::lossless() }
    }

    impl Kind {
        /// The config a case's tweaks apply to: entries run a 64-entry
        /// window under their own seed, frames the defaults (BDP window).
        fn base(self) -> RackConfig {
            match self {
                Kind::Entries => {
                    RackConfig { window: Some(64), seed: 0x7AB5, ..RackConfig::default() }
                }
                Kind::Frames => RackConfig::default(),
            }
        }

        /// `workers` flows of `count` units each through `cfg`.
        fn run(self, workers: u32, count: u64, prune: fn(u64) -> bool, cfg: RackConfig) -> Run {
            match self {
                Kind::Entries => {
                    let streams = (0..workers)
                        .map(|w| (0..count).map(|i| vec![entry_value(w, i)]).collect())
                        .collect();
                    let sim = RackSim::entries(cfg, streams, |_, v| {
                        if prune(v[0]) {
                            Verdict::Prune
                        } else {
                            Verdict::Forward
                        }
                    });
                    collect(sim, |d: &DataPacket| {
                        assert_eq!(d.values, [entry_value(d.fid, d.seq - 1)], "entry content")
                    })
                }
                Kind::Frames => {
                    let streams = (0..workers)
                        .map(|w| {
                            (0..count)
                                .map(|seq| {
                                    let tag = format!("{w}:{seq}:a");
                                    emit_batch(w, seq, [tag.as_bytes(), b"payload"])
                                })
                                .collect()
                        })
                        .collect();
                    collect(RackSim::frames(cfg, streams), |_| {})
                }
            }
        }
    }

    fn collect<U: Payload>(sim: RackSim<'_, U>, check_unit: impl Fn(&U)) -> Run {
        let mut seen = Vec::new();
        let report = sim.run(|u| {
            check_unit(&u);
            seen.push((u.flow(), u.seq() - 1));
        });
        Run { report, seen }
    }

    fn never(_: u64) -> bool {
        false
    }

    fn seqs_of(run: &Run, w: u32) -> Vec<u64> {
        run.seen.iter().filter(|(f, _)| *f == w).map(|(_, q)| *q).collect()
    }

    fn sorted(run: &Run) -> Vec<(u32, u64)> {
        let mut seen = run.seen.clone();
        seen.sort_unstable();
        seen
    }

    const CASES: &[Case] = &[
        Case {
            name: "lossless: everything once, in order, no recovery work",
            workers: 3,
            count: 200,
            prune: never,
            runs: &[|c| c],
            check: |r| {
                assert_eq!(r[0].report.delivered, 600);
                assert_eq!(r[0].report.retransmissions, 0);
                assert_eq!(r[0].report.switch_acks, 0);
                assert_eq!(r[0].report.duplicates, 0);
                // Per flow, arrival order is the emission order on a
                // lossless zero-jitter rack.
                for w in 0..3 {
                    assert_eq!(seqs_of(&r[0], w), (0..200).collect::<Vec<_>>());
                }
            },
        },
        Case {
            name: "a faster downlink does not change delivery",
            workers: 2,
            count: 100,
            prune: never,
            runs: &[|c| RackConfig { downlink_bps: 20e9, ..c }],
            check: |r| assert_eq!(r[0].report.delivered, 200),
        },
        Case {
            name: "loss with pruning still covers every unpruned unit",
            workers: 2,
            count: 150,
            prune: |v| v % 3 == 0,
            runs: &[|c| RackConfig { faults: faults(0.10, 0.05, 0.0), rto_ns: 200_000, ..c }],
            check: |r| assert!(r[0].report.retransmissions > 0, "losses must cause resends"),
        },
        Case {
            name: "harsh faults: exactly once after retransmissions",
            workers: 2,
            count: 40,
            prune: never,
            runs: &[|c| RackConfig { faults: FaultProfile::harsh(), rto_ns: 200_000, ..c }],
            check: |r| {
                assert!(r[0].report.retransmissions > 0, "loss must force retransmits");
                assert_eq!(r[0].report.delivered, 80, "sink sees each unit exactly once");
            },
        },
        Case {
            // A lost ACK makes the worker resend a unit the switch already
            // processed (for entries: pruned); the switch must forward it
            // rather than reprocess it (the `Y ≤ X` rule) — the §7.2
            // "superset is fine" case.
            name: "ACK-path loss: stale retransmissions are forwarded unprocessed",
            workers: 1,
            count: 300,
            prune: |_| true,
            runs: &[|c| RackConfig { faults: faults(0.25, 0.0, 0.0), rto_ns: 100_000, ..c }],
            check: |r| assert!(r[0].report.forwarded_stale > 0, "expected stale forwards"),
        },
        Case {
            name: "windowed sending over loss creates gap drops",
            workers: 1,
            count: 400,
            prune: never,
            runs: &[|c| RackConfig {
                faults: faults(0.2, 0.0, 0.0),
                rto_ns: 100_000,
                window: Some(32),
                ..c
            }],
            check: |r| {
                assert!(r[0].report.dropped_ahead > 0, "loss in a window must create gaps");
                assert_eq!(r[0].report.delivered, 400);
            },
        },
        Case {
            name: "corruption is caught by the checksum and recovered",
            workers: 1,
            count: 200,
            prune: never,
            runs: &[|c| RackConfig { faults: faults(0.0, 0.10, 0.0), rto_ns: 100_000, ..c }],
            check: |r| {
                assert!(r[0].report.malformed > 0, "corrupted packets must be caught");
                assert_eq!(r[0].report.delivered, 200);
            },
        },
        Case {
            name: "link duplication is absorbed by the master's dedup",
            workers: 2,
            count: 40,
            prune: never,
            runs: &[|c| RackConfig { faults: faults(0.0, 0.0, 0.3), rto_ns: 200_000, ..c }],
            check: |r| {
                assert!(r[0].report.duplicates > 0, "link duplication must reach the dedup");
                assert_eq!(r[0].report.delivered, 80);
            },
        },
        Case {
            // Nothing to send: all_acked() holds from the start, but FINs
            // only go out on ACK receipt — the timer path must cover this.
            name: "empty streams complete via the FIN timer path",
            workers: 2,
            count: 0,
            prune: never,
            runs: &[|c| c],
            check: |r| {
                assert_eq!(r[0].report.delivered, 0);
                assert!(r[0].seen.is_empty());
            },
        },
        Case {
            name: "the same seed is bit-identical, retransmit counts included",
            workers: 3,
            count: 25,
            prune: never,
            runs: &[
                |c| RackConfig {
                    faults: FaultProfile::harsh(),
                    rto_ns: 200_000,
                    seed: 0xDEAD_BEEF,
                    ..c
                },
                |c| RackConfig {
                    faults: FaultProfile::harsh(),
                    rto_ns: 200_000,
                    seed: 0xDEAD_BEEF,
                    ..c
                },
            ],
            check: |r| {
                assert_eq!(r[0].report, r[1].report, "same seed must reproduce every counter");
                assert_eq!(r[0].seen, r[1].seen, "same seed must reproduce the delivery order");
            },
        },
        Case {
            name: "different seeds change the loss pattern, not the answer",
            workers: 2,
            count: 30,
            prune: never,
            runs: &[
                |c| RackConfig { faults: FaultProfile::harsh(), rto_ns: 200_000, seed: 1, ..c },
                |c| RackConfig { faults: FaultProfile::harsh(), rto_ns: 200_000, seed: 2, ..c },
            ],
            check: |r| assert_eq!(sorted(&r[0]), sorted(&r[1])),
        },
        Case {
            name: "transfer time scales with the link rate",
            workers: 1,
            count: 2_000,
            prune: |_| true,
            runs: &[
                |c| RackConfig { uplink_bps: 1e9, downlink_bps: 1e9, window: Some(1024), ..c },
                |c| RackConfig { uplink_bps: 10e9, downlink_bps: 10e9, window: Some(1024), ..c },
            ],
            check: |r| {
                let (slow, fast) = (r[0].report.sim_seconds, r[1].report.sim_seconds);
                assert!(slow > fast * 3.0, "slow {slow}, fast {fast}");
            },
        },
        Case {
            name: "goodput degrades with the drop rate",
            workers: 2,
            count: 60,
            prune: never,
            runs: &[
                |c| RackConfig { rto_ns: 200_000, ..c },
                |c| RackConfig { faults: faults(0.3, 0.0, 0.0), rto_ns: 200_000, ..c },
            ],
            check: |r| {
                let (clean, lossy) = (r[0].report.goodput_bps, r[1].report.goodput_bps);
                assert!(lossy < clean, "drops must cost goodput: {lossy} vs {clean}");
            },
        },
    ];

    #[test]
    fn every_case_holds_for_entries_and_frames() {
        for case in CASES {
            for kind in [Kind::Entries, Kind::Frames] {
                eprintln!("case: {} over {kind:?}", case.name);
                let runs: Vec<Run> = case
                    .runs
                    .iter()
                    .map(|tweak| kind.run(case.workers, case.count, case.prune, tweak(kind.base())))
                    .collect();
                for run in &runs {
                    assert!(run.report.completed, "the run must terminate");
                    let seen: HashSet<(u32, u64)> = run.seen.iter().copied().collect();
                    assert_eq!(seen.len(), run.seen.len(), "a unit reached the sink twice");
                    assert_eq!(run.report.delivered, run.seen.len() as u64);
                    for w in 0..case.workers {
                        for i in 0..case.count {
                            let pruned =
                                matches!(kind, Kind::Entries) && (case.prune)(entry_value(w, i));
                            assert!(pruned || seen.contains(&(w, i)), "missing unit ({w}, {i})");
                        }
                    }
                    assert!(seen.iter().all(|&(w, i)| w < case.workers && i < case.count));
                }
                (case.check)(&runs);
            }
        }
    }

    #[test]
    fn pruned_entries_are_acked_not_delivered() {
        // Prune odd values.
        let run = Kind::Entries.run(2, 100, |v| v % 2 == 1, Kind::Entries.base());
        assert!(run.report.completed);
        assert_eq!(run.report.switch_acks, 100);
        assert_eq!(run.report.delivered, 100);
        for (w, i) in run.seen {
            assert_eq!(entry_value(w, i) % 2, 0, "odd value delivered for flow {w}");
        }
    }

    #[test]
    fn bdp_window_tracks_rate_and_clamps() {
        // 10 Gbps × 2 µs RTT = 20 kbit ≈ 2.5 kB in flight; 1.5 kB frames
        // → 2 frames, clamped up to the floor of 4.
        assert_eq!(bdp_window(10e9, 2_000, 1_500), 4);
        // A fat long pipe wants a big window…
        assert!(bdp_window(100e9, 1_000_000, 1_500) > 100);
        // …but never past the cap.
        assert_eq!(bdp_window(400e9, 1_000_000_000, 64), 1024);
        // Degenerate frame size must not divide by zero.
        assert!(bdp_window(10e9, 2_000, 0) >= 4);
    }
}
