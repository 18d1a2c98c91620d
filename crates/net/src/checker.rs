//! A dslab-mp-style bounded model checker for the merge plane.
//!
//! [`crate::rack`] samples one fault pattern per seed; this module
//! *exhausts* them. [`explore`] enumerates every delivery schedule of a
//! small message set — per-flow FIFO delivery, plus drop and duplication
//! actions up to explicit budgets — and invokes a visitor with each
//! complete schedule. The visitor replays the schedule against whatever
//! state it is checking (in the contract gate: a fresh
//! `MergeState` fed the scheduled `SurvivorBatch` frames) and asserts the
//! final state is bit-identical across every interleaving.
//!
//! # The action model
//!
//! From each explorer state the enabled actions are:
//!
//! * **Deliver** — the head frame of a flow arrives
//!   ([`DeliveryKind::Fresh`]); per-flow FIFO, so heads only.
//! * **Drop** — the head frame is lost in transit (moves to a *lost* set,
//!   nothing observable happens yet); bounded by
//!   [`CheckerConfig::drop_budget`]. Go-back-N guarantees a lost frame is
//!   eventually resent, so every lost frame must later be…
//! * **Redeliver** — a lost frame arrives ([`DeliveryKind::Retransmit`]).
//!   Any lost frame may arrive at any later point — this is the source of
//!   out-of-order delivery (frame 2 fresh, then frame 1 as a
//!   retransmit), exactly what the switch's `ForwardStale` path produces.
//! * **Duplicate** — an already-delivered frame arrives again
//!   ([`DeliveryKind::Duplicate`]); bounded by
//!   [`CheckerConfig::dup_budget`]. Models both link-level duplication
//!   and a retransmit racing its own ACK.
//!
//! A schedule is complete when every flow is exhausted and the lost set
//! is empty (the protocol's termination guarantee: FINs are not ACKed
//! until all data is). Trailing duplicates after the last fresh delivery
//! are explored too.
//!
//! # State-space bounds
//!
//! With no fault budgets the schedule count is the multinomial
//! `(Σnᵢ)! / Πnᵢ!` over flow lengths `nᵢ` — e.g. 2 flows × 3 frames =
//! `C(6,3)` = 20 schedules; 3 × 3 = 1 680. Each unit of drop budget
//! multiplies the count by roughly the schedule length (choosing when the
//! retransmit lands), and each unit of duplication budget by roughly the
//! number of delivered frames — so budgets of 1–2 over ≤ 12 frames stay
//! in the tens of thousands of schedules, well under a CI minute even
//! with a full merge-plane replay per schedule. Drop timing itself is
//! unobservable, so a few delivery orders are revisited; the explorer
//! bounds work, not uniqueness. [`ExploreStats::truncated`] reports
//! whether [`CheckerConfig::max_schedules`] cut the search short — gates
//! assert it is `false`, making the exhaustiveness claim explicit.

/// Bounds of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Frames per flow (index = flow id); drives per-flow FIFO heads.
    pub frames_per_flow: Vec<usize>,
    /// How many Drop actions a schedule may contain.
    pub drop_budget: usize,
    /// How many Duplicate actions a schedule may contain.
    pub dup_budget: usize,
    /// Safety valve: stop after this many complete schedules. An
    /// exhaustive gate asserts the search finished *under* this bound
    /// (`!truncated`).
    pub max_schedules: u64,
}

/// How a frame reached the receiver in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// First transmission, in FIFO order.
    Fresh,
    /// A dropped frame arriving late (go-back-N resend) — may be out of
    /// order relative to fresh deliveries of the same flow.
    Retransmit,
    /// A second arrival of an already-delivered frame.
    Duplicate,
}

/// One frame arrival in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Flow (shard) index.
    pub flow: usize,
    /// 0-based frame sequence within the flow.
    pub seq: u64,
    /// Fresh, retransmitted, or duplicated.
    pub kind: DeliveryKind,
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Complete schedules visited.
    pub schedules: u64,
    /// Schedules containing at least one Drop/Redeliver pair.
    pub schedules_with_drop: u64,
    /// Schedules containing at least one Duplicate.
    pub schedules_with_dup: u64,
    /// True when `max_schedules` stopped the search before exhaustion —
    /// an exhaustive gate must see `false` here.
    pub truncated: bool,
}

struct Explorer<'v> {
    cfg: &'v CheckerConfig,
    visit: &'v mut dyn FnMut(&[Delivery]),
    stats: ExploreStats,
    schedule: Vec<Delivery>,
    /// Next fresh seq per flow.
    heads: Vec<usize>,
    /// Dropped-but-not-yet-redelivered frames.
    lost: Vec<(usize, u64)>,
    drops_used: usize,
    dups_used: usize,
}

impl Explorer<'_> {
    fn dfs(&mut self) {
        if self.stats.truncated {
            return;
        }
        if self.stats.schedules >= self.cfg.max_schedules {
            self.stats.truncated = true;
            return;
        }
        let terminal = self.heads.iter().zip(&self.cfg.frames_per_flow).all(|(h, n)| h >= n)
            && self.lost.is_empty();
        if terminal {
            self.stats.schedules += 1;
            if self.schedule.iter().any(|d| d.kind == DeliveryKind::Retransmit) {
                self.stats.schedules_with_drop += 1;
            }
            if self.schedule.iter().any(|d| d.kind == DeliveryKind::Duplicate) {
                self.stats.schedules_with_dup += 1;
            }
            (self.visit)(&self.schedule);
            // Fall through: trailing Duplicate actions extend this
            // schedule into further (also terminal) schedules.
        }

        // Deliver or Drop each flow's head.
        for f in 0..self.cfg.frames_per_flow.len() {
            if self.heads[f] >= self.cfg.frames_per_flow[f] {
                continue;
            }
            let seq = self.heads[f] as u64;
            self.heads[f] += 1;
            self.schedule.push(Delivery { flow: f, seq, kind: DeliveryKind::Fresh });
            self.dfs();
            self.schedule.pop();
            if self.drops_used < self.cfg.drop_budget {
                self.drops_used += 1;
                self.lost.push((f, seq));
                self.dfs();
                self.lost.pop();
                self.drops_used -= 1;
            }
            self.heads[f] -= 1;
        }

        // Redeliver any lost frame.
        for i in 0..self.lost.len() {
            let (f, seq) = self.lost.remove(i);
            self.schedule.push(Delivery { flow: f, seq, kind: DeliveryKind::Retransmit });
            self.dfs();
            self.schedule.pop();
            self.lost.insert(i, (f, seq));
        }

        // Duplicate any frame delivered so far.
        if self.dups_used < self.cfg.dup_budget {
            let delivered: Vec<(usize, u64)> = {
                let mut seen = Vec::new();
                for d in &self.schedule {
                    if d.kind != DeliveryKind::Duplicate && !seen.contains(&(d.flow, d.seq)) {
                        seen.push((d.flow, d.seq));
                    }
                }
                seen
            };
            self.dups_used += 1;
            for (f, seq) in delivered {
                self.schedule.push(Delivery { flow: f, seq, kind: DeliveryKind::Duplicate });
                self.dfs();
                self.schedule.pop();
            }
            self.dups_used -= 1;
        }
    }
}

/// Exhaustively explore every delivery schedule allowed by `cfg`,
/// invoking `visit` once per complete schedule. Returns what was covered;
/// callers proving exhaustiveness must assert
/// [`ExploreStats::truncated`] is false.
pub fn explore(cfg: &CheckerConfig, mut visit: impl FnMut(&[Delivery])) -> ExploreStats {
    let mut explorer = Explorer {
        cfg,
        visit: &mut visit,
        stats: ExploreStats::default(),
        schedule: Vec::new(),
        heads: vec![0; cfg.frames_per_flow.len()],
        lost: Vec::new(),
        drops_used: 0,
        dups_used: 0,
    };
    explorer.dfs();
    explorer.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg(flows: &[usize], drops: usize, dups: usize) -> CheckerConfig {
        CheckerConfig {
            frames_per_flow: flows.to_vec(),
            drop_budget: drops,
            dup_budget: dups,
            max_schedules: 10_000_000,
        }
    }

    #[test]
    fn fault_free_count_is_the_exact_multinomial() {
        // 2 flows × 3 frames: C(6,3) = 20 interleavings, no more, no less.
        let stats = explore(&cfg(&[3, 3], 0, 0), |_| {});
        assert_eq!(stats.schedules, 20);
        assert!(!stats.truncated);
        assert_eq!(stats.schedules_with_drop, 0);
        assert_eq!(stats.schedules_with_dup, 0);
        // 3 flows × 2 frames: 6!/(2!2!2!) = 90.
        assert_eq!(explore(&cfg(&[2, 2, 2], 0, 0), |_| {}).schedules, 90);
        // Single flow: exactly one order.
        assert_eq!(explore(&cfg(&[4], 0, 0), |_| {}).schedules, 1);
    }

    #[test]
    fn fault_free_schedules_are_fifo_per_flow_and_distinct() {
        let mut seen = HashSet::new();
        let stats = explore(&cfg(&[3, 2], 0, 0), |sched| {
            let mut last: Vec<i64> = vec![-1; 2];
            for d in sched {
                assert_eq!(d.kind, DeliveryKind::Fresh);
                assert_eq!(d.seq as i64, last[d.flow] + 1, "per-flow FIFO violated");
                last[d.flow] = d.seq as i64;
            }
            let key: Vec<(usize, u64)> = sched.iter().map(|d| (d.flow, d.seq)).collect();
            assert!(seen.insert(key), "fault-free schedules must be unique");
        });
        assert_eq!(stats.schedules, 10); // C(5,2)
    }

    #[test]
    fn every_schedule_delivers_every_frame_at_least_once() {
        let stats = explore(&cfg(&[2, 2], 1, 1), |sched| {
            let delivered: HashSet<(usize, u64)> = sched
                .iter()
                .filter(|d| d.kind != DeliveryKind::Duplicate)
                .map(|d| (d.flow, d.seq))
                .collect();
            assert_eq!(delivered.len(), 4, "a complete schedule covers all frames: {sched:?}");
        });
        assert!(!stats.truncated);
        assert!(stats.schedules_with_drop > 0, "drop budget must be exercised");
        assert!(stats.schedules_with_dup > 0, "dup budget must be exercised");
    }

    #[test]
    fn drops_create_out_of_order_delivery() {
        // With one drop allowed, some schedule must deliver seq 1 before
        // the retransmitted seq 0 — the reordering the merge plane must
        // survive.
        let mut reordered = false;
        explore(&cfg(&[3], 1, 0), |sched| {
            let pos0 = sched.iter().position(|d| d.seq == 0).unwrap();
            let pos1 = sched.iter().position(|d| d.seq == 1).unwrap();
            if pos1 < pos0 {
                reordered = true;
            }
        });
        assert!(reordered, "the explorer must reach out-of-order deliveries");
    }

    #[test]
    fn duplicates_replay_only_delivered_frames() {
        explore(&cfg(&[2, 1], 0, 2), |sched| {
            for (i, d) in sched.iter().enumerate() {
                if d.kind == DeliveryKind::Duplicate {
                    assert!(
                        sched[..i].iter().any(|p| {
                            p.kind != DeliveryKind::Duplicate && (p.flow, p.seq) == (d.flow, d.seq)
                        }),
                        "duplicate of a never-delivered frame in {sched:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let c = CheckerConfig {
            frames_per_flow: vec![4, 4],
            drop_budget: 0,
            dup_budget: 0,
            max_schedules: 5, // far below the 70 interleavings
        };
        let stats = explore(&c, |_| {});
        assert!(stats.truncated);
        assert!(stats.schedules <= 5);
    }

    #[test]
    fn zero_frames_yield_the_single_empty_schedule() {
        let mut calls = 0;
        let stats = explore(&cfg(&[0, 0], 1, 1), |sched| {
            assert!(sched.is_empty());
            calls += 1;
        });
        assert_eq!(stats.schedules, 1);
        assert_eq!(calls, 1);
    }
}
